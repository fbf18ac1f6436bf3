// Fleet determinism and failure-path coverage: batched-through-fleet ==
// serial row-for-row at 1..4 backends (with and without injected transient
// failures), retries reroute and converge, permanent failures circuit-break
// without losing queued requests, and recorded replay round-trips through
// the persisted measurement table.
#include "unicorn/backend/backend_fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "eval/harness.h"
#include "sysmodel/systems.h"
#include "unicorn/backend/in_process_backend.h"
#include "unicorn/backend/recorded_backend.h"
#include "unicorn/backend/simulated_device_backend.h"
#include "unicorn/measurement_broker.h"

namespace unicorn {
namespace {

struct Scenario {
  std::shared_ptr<SystemModel> model;
  PerformanceTask task;
};

Scenario MakeScenario(uint64_t seed) {
  SystemSpec spec;
  spec.num_events = 8;
  Scenario s;
  s.model = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
  s.task = MakeSimulatedTask(s.model, Tx2(), DefaultWorkload(), seed);
  return s;
}

std::vector<std::vector<double>> SampleBatch(const PerformanceTask& task, size_t count,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < count; ++i) {
    configs.push_back(task.sample_config(&rng));
  }
  return configs;
}

// `n` homogeneous simulated devices: same model, same environment, same
// task seed — rows are identical wherever a request lands, which is exactly
// what the bit-identity guarantee needs.
std::vector<std::unique_ptr<MeasurementBackend>> MakeDevices(const Scenario& s,
                                                             uint64_t task_seed, int n,
                                                             double transient_rate,
                                                             double permanent_rate) {
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  for (int b = 0; b < n; ++b) {
    DeviceProfile profile;
    profile.name = "jetson-" + std::to_string(b);
    profile.seed = 1000 + static_cast<uint64_t>(b);
    profile.transient_failure_rate = transient_rate;
    profile.permanent_failure_rate = permanent_rate;
    backends.push_back(
        MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(), task_seed, std::move(profile)));
  }
  return backends;
}

std::unique_ptr<BackendFleet> MakeDeviceFleet(const Scenario& s, uint64_t task_seed, int n,
                                              double transient_rate, double permanent_rate,
                                              FleetOptions options = {}) {
  return std::make_unique<BackendFleet>(
      MakeDevices(s, task_seed, n, transient_rate, permanent_rate), options);
}

// What a request's seeded failure draws allow over every routing the fleet
// may pick. The draws are fixed per (device, config, attempt), but which
// device serves which attempt depends on queue loads, i.e. on thread
// timing: attempt k may go to any device not yet tried while one remains,
// and to any device after that.
struct RoutingEnvelope {
  size_t min_retries = 0;
  size_t max_retries = 0;
  bool can_exhaust = false;  // some routing fails every attempt
};

RoutingEnvelope EnvelopeOf(const std::vector<std::unique_ptr<MeasurementBackend>>& devices,
                           const std::vector<double>& config, int max_attempts) {
  const size_t n = devices.size();
  std::vector<std::vector<bool>> fails(n, std::vector<bool>(max_attempts + 1));
  for (size_t d = 0; d < n; ++d) {
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      fails[d][attempt] = devices[d]->Measure(config, attempt).status != MeasureStatus::kOk;
    }
  }
  RoutingEnvelope envelope;
  envelope.min_retries = static_cast<size_t>(max_attempts);
  const uint32_t all_tried = (1u << n) - 1;
  const auto explore = [&](const auto& self, uint32_t tried, int attempt) -> void {
    for (size_t d = 0; d < n; ++d) {
      if (tried != all_tried && (tried & (1u << d)) != 0) {
        continue;
      }
      size_t retries = 0;
      if (!fails[d][attempt]) {
        retries = static_cast<size_t>(attempt - 1);
      } else if (attempt == max_attempts) {
        retries = static_cast<size_t>(attempt - 1);
        envelope.can_exhaust = true;
      } else {
        self(self, tried | (1u << d), attempt + 1);
        continue;
      }
      envelope.min_retries = std::min(envelope.min_retries, retries);
      envelope.max_retries = std::max(envelope.max_retries, retries);
    }
  };
  explore(explore, 0, 1);
  return envelope;
}

TEST(BackendFleetTest, DeviceFailureInjectionIsDeterministic) {
  const Scenario s = MakeScenario(11);
  DeviceProfile profile;
  profile.seed = 5;
  profile.transient_failure_rate = 0.4;
  profile.permanent_failure_rate = 0.1;
  SimulatedDeviceBackend a(s.task, profile);
  SimulatedDeviceBackend b(s.task, profile);
  const auto configs = SampleBatch(s.task, 30, 12);
  for (const auto& config : configs) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const MeasureOutcome first = a.Measure(config, attempt);
      const MeasureOutcome second = b.Measure(config, attempt);
      EXPECT_EQ(first.status, second.status);
      EXPECT_EQ(first.row, second.row);
    }
  }
}

// Devices with consecutive seeds must draw independent failures on every
// attempt: a rerouted retry lands on a sibling device with a different
// attempt number, and if (seed 1000, attempt 3) drew the same stream as
// (seed 1001, attempt 2) the retry would repeat the failure it retries.
TEST(BackendFleetTest, ConsecutiveDeviceSeedsDrawIndependentAttempts) {
  const Scenario s = MakeScenario(13);
  DeviceProfile profile;
  profile.transient_failure_rate = 0.5;
  profile.seed = 1000;
  SimulatedDeviceBackend first(s.task, profile);
  profile.seed = 1001;
  SimulatedDeviceBackend second(s.task, profile);
  const auto configs = SampleBatch(s.task, 200, 14);
  size_t agree = 0;
  for (const auto& config : configs) {
    if (first.Measure(config, 3).status == second.Measure(config, 2).status) {
      ++agree;
    }
  }
  EXPECT_LT(agree, configs.size());
}

TEST(BackendFleetTest, FleetMatchesSerialBrokerRowForRow) {
  const Scenario s = MakeScenario(21);
  const auto configs = SampleBatch(s.task, 40, 22);

  MeasurementBroker serial(s.task);  // pool mode, one thread: the oracle
  const auto reference = serial.MeasureBatch(configs);

  for (int n : {1, 2, 3, 4}) {
    MeasurementBroker broker(s.task, MakeDeviceFleet(s, 21, n, 0.0, 0.0));
    EXPECT_EQ(broker.MeasureBatch(configs), reference) << "backends=" << n;
    const FleetStats stats = broker.fleet_stats();
    EXPECT_EQ(stats.completed, configs.size());
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retries, 0u);
    ASSERT_EQ(stats.backends.size(), static_cast<size_t>(n));
  }
}

TEST(BackendFleetTest, InProcessBackendsMatchSerialToo) {
  const Scenario s = MakeScenario(31);
  const auto configs = SampleBatch(s.task, 30, 32);
  MeasurementBroker serial(s.task);
  const auto reference = serial.MeasureBatch(configs);

  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  backends.push_back(std::make_unique<InProcessBackend>(s.task, "proc-0", 2));
  backends.push_back(std::make_unique<InProcessBackend>(s.task, "proc-1", 2));
  MeasurementBroker broker(s.task, std::make_unique<BackendFleet>(std::move(backends)));
  EXPECT_EQ(broker.MeasureBatch(configs), reference);
  // Least-loaded routing spreads a 30-request batch over both backends.
  const FleetStats stats = broker.fleet_stats();
  EXPECT_GT(stats.backends[0].dispatched, 0u);
  EXPECT_GT(stats.backends[1].dispatched, 0u);
}

TEST(BackendFleetTest, TransientFailuresRetryRerouteAndStillConverge) {
  const Scenario s = MakeScenario(41);
  const auto configs = SampleBatch(s.task, 60, 42);
  MeasurementBroker serial(s.task);
  const auto reference = serial.MeasureBatch(configs);

  for (int n : {2, 4}) {
    SCOPED_TRACE("backends=" + std::to_string(n));
    // A 30% transient rate across every device with max_attempts=6: about
    // 60 * 0.3^6 ~ 4% of runs see a request exhaust its attempts, and which
    // one depends on routing. So every assertion below is one that holds
    // under any routing, derived from the seeded per-attempt draws.
    FleetOptions options;
    options.max_attempts = 6;
    const auto devices = MakeDevices(s, 41, n, 0.3, 0.0);
    std::vector<RoutingEnvelope> envelopes;
    size_t min_retries = 0;
    size_t max_retries = 0;
    for (const auto& config : configs) {
      envelopes.push_back(EnvelopeOf(devices, config, options.max_attempts));
      min_retries += envelopes.back().min_retries;
      max_retries += envelopes.back().max_retries;
    }
    // Seed facts, independent of routing. With two devices some request
    // fails its first attempt on both, so retries must show up wherever it
    // lands. With four, every request has a device whose first attempt
    // succeeds, so only the envelope below binds.
    if (n == 2) {
      ASSERT_GT(min_retries, 0u);
    }

    MeasurementBroker broker(s.task, MakeDeviceFleet(s, 41, n, 0.3, 0.0, options));
    const BatchTicket ticket = broker.SubmitBatch(configs);
    std::vector<int> resolved(configs.size(), 0);
    size_t gave_up = 0;
    BrokerCompletion done;
    while (broker.WaitCompletion(&done)) {
      ASSERT_EQ(done.batch, ticket.id);
      ASSERT_LT(done.index, configs.size());
      ++resolved[done.index];
      if (done.ok) {
        // Retried or not, a request converges to the serial row.
        EXPECT_EQ(done.row, reference[done.index]) << "request " << done.index;
      } else {
        // Giving up is allowed only where the draws permit it.
        ++gave_up;
        EXPECT_TRUE(envelopes[done.index].can_exhaust) << done.error;
        EXPECT_NE(done.error.find("gave up after 6 attempts"), std::string::npos)
            << done.error;
      }
    }
    EXPECT_EQ(resolved, std::vector<int>(configs.size(), 1));  // each exactly once

    const FleetStats stats = broker.fleet_stats();
    EXPECT_EQ(stats.completed + stats.failed, configs.size());
    EXPECT_EQ(stats.failed, gave_up);
    EXPECT_EQ(broker.stats().failures, gave_up);
    EXPECT_GE(stats.retries, min_retries);
    EXPECT_LE(stats.retries, max_retries);
    // A first retry always avoids the device that failed it.
    EXPECT_EQ(stats.rerouted > 0, stats.retries > 0);
    size_t transient_total = 0;
    for (const auto& backend : stats.backends) {
      transient_total += backend.transient_failures;
    }
    // Every failed attempt is either retried or is a request's last.
    EXPECT_EQ(transient_total, stats.retries + stats.failed);
    // Each request ends in exactly one success or one give-up; retries are
    // extra attempts on top.
    EXPECT_EQ(stats.TotalMeasured(), configs.size() + stats.retries);
  }
}

TEST(BackendFleetTest, PermanentFailuresCircuitBreakWithoutLosingRequests) {
  const Scenario s = MakeScenario(51);
  const auto configs = SampleBatch(s.task, 40, 52);
  MeasurementBroker serial(s.task);
  const auto reference = serial.MeasureBatch(configs);

  // Backend 0 permanently fails every attempt; 1 and 2 are healthy. A small
  // queue bound forces requests to pile up behind the sick backend so the
  // break actually migrates queued work.
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  for (int b = 0; b < 3; ++b) {
    DeviceProfile profile;
    profile.name = "jetson-" + std::to_string(b);
    profile.seed = 2000 + static_cast<uint64_t>(b);
    profile.permanent_failure_rate = b == 0 ? 1.0 : 0.0;
    backends.push_back(
        MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(), 51, std::move(profile)));
  }
  FleetOptions options;
  options.circuit_break_after = 2;
  options.queue_capacity = 8;
  MeasurementBroker broker(s.task, std::make_unique<BackendFleet>(std::move(backends), options));

  EXPECT_EQ(broker.MeasureBatch(configs), reference);

  const FleetStats stats = broker.fleet_stats();
  EXPECT_EQ(stats.completed, configs.size());  // nothing lost
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.circuit_breaks, 1u);
  EXPECT_TRUE(stats.backends[0].circuit_broken);
  EXPECT_EQ(stats.backends[0].completed, 0u);
  EXPECT_EQ(stats.backends[0].permanent_failures, 2u);  // capped by the breaker
  EXPECT_EQ(stats.backends[0].queue_depth, 0u);         // queue fully migrated
  EXPECT_EQ(stats.backends[1].completed + stats.backends[2].completed, configs.size());
}

TEST(BackendFleetTest, AllBackendsBrokenFailsTheRequestCleanly) {
  const Scenario s = MakeScenario(61);
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  DeviceProfile profile;
  profile.name = "dying";
  profile.seed = 3000;
  profile.permanent_failure_rate = 1.0;
  backends.push_back(
      MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(), 61, std::move(profile)));
  FleetOptions options;
  options.circuit_break_after = 1;
  BackendFleet fleet(std::move(backends), options);

  const auto configs = SampleBatch(s.task, 3, 62);
  for (const auto& config : configs) {
    fleet.Submit(config);
  }
  size_t failures = 0;
  FleetCompletion done;
  while (fleet.WaitCompletion(&done)) {
    EXPECT_NE(done.outcome.status, MeasureStatus::kOk);
    ++failures;
  }
  EXPECT_EQ(failures, configs.size());  // every ticket completes, none hang
  EXPECT_EQ(fleet.Outstanding(), 0u);
  EXPECT_TRUE(fleet.stats().backends[0].circuit_broken);
}

TEST(BackendFleetTest, RecordedBackendReplaysAPersistedTable) {
  const Scenario s = MakeScenario(71);
  const auto configs = SampleBatch(s.task, 25, 72);

  // Session 1: measure live, persist the broker cache.
  const std::string path = ::testing::TempDir() + "fleet_recorded_table.csv";
  MeasurementBroker live(s.task);
  const auto reference = live.MeasureBatch(configs);
  ASSERT_TRUE(live.SaveCache(path));

  // Session 2: a fleet whose only member replays the recording — rows come
  // back bit-identical with zero live measurements.
  RecordedBackend recorded = RecordedBackend::FromFile(path);
  ASSERT_EQ(recorded.size(), configs.size());
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  backends.push_back(std::make_unique<RecordedBackend>(std::move(recorded)));
  MeasurementBroker replay(s.task, std::make_unique<BackendFleet>(std::move(backends)));
  EXPECT_EQ(replay.MeasureBatch(configs), reference);
  EXPECT_EQ(replay.fleet_stats().backends[0].completed, configs.size());
  std::remove(path.c_str());
}

TEST(BackendFleetTest, CapabilityRoutingSendsUnrecordedConfigsToLiveBackends) {
  const Scenario s = MakeScenario(81);
  const auto recorded_configs = SampleBatch(s.task, 15, 82);
  const auto novel_configs = SampleBatch(s.task, 15, 83);

  const std::string path = ::testing::TempDir() + "fleet_capability_table.csv";
  MeasurementBroker live(s.task);
  live.MeasureBatch(recorded_configs);
  ASSERT_TRUE(live.SaveCache(path));

  // Recorded replay + one live device: Supports() keeps unrecorded
  // configurations off the replay backend entirely.
  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  backends.push_back(
      std::make_unique<RecordedBackend>(RecordedBackend::FromFile(path, "replay")));
  DeviceProfile profile;
  profile.name = "live";
  profile.seed = 4000;
  backends.push_back(
      MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(), 81, std::move(profile)));
  MeasurementBroker broker(s.task, std::make_unique<BackendFleet>(std::move(backends)));

  std::vector<std::vector<double>> all = recorded_configs;
  all.insert(all.end(), novel_configs.begin(), novel_configs.end());
  MeasurementBroker serial(s.task);
  EXPECT_EQ(broker.MeasureBatch(all), serial.MeasureBatch(all));

  const FleetStats stats = broker.fleet_stats();
  EXPECT_EQ(stats.failed, 0u);
  // Every novel configuration had exactly one eligible backend.
  EXPECT_GE(stats.backends[1].completed, novel_configs.size());
  std::remove(path.c_str());
}

// Environment-aware routing: a tagged request is served only by the
// exactly-matching backend — even when an untagged backend is idle — and a
// request whose environment no backend carries fails with a typed permanent
// failure instead of landing on the wrong hardware.
TEST(BackendFleetTest, EnvironmentAwareRoutingPinsTaggedRequests) {
  const Scenario s = MakeScenario(101);
  const auto configs = SampleBatch(s.task, 12, 102);

  std::vector<std::unique_ptr<MeasurementBackend>> backends;
  DeviceProfile tx2_profile;
  tx2_profile.name = "tx2-dev";
  tx2_profile.seed = 5000;
  backends.push_back(
      MakeDeviceBackend(s.model, Tx2(), DefaultWorkload(), 101, std::move(tx2_profile)));
  DeviceProfile xavier_profile;
  xavier_profile.name = "xavier-dev";
  xavier_profile.seed = 5001;
  backends.push_back(
      MakeDeviceBackend(s.model, Xavier(), DefaultWorkload(), 101, std::move(xavier_profile)));
  // MakeDeviceBackend defaults the routing tag to the Environment name.
  BackendFleet fleet(std::move(backends));
  EXPECT_EQ(fleet.backend(0).environment(), "TX2");
  EXPECT_EQ(fleet.backend(1).environment(), "Xavier");

  for (const auto& config : configs) {
    fleet.Submit(config, "TX2");
  }
  fleet.Submit(configs[0], "Xavier");
  fleet.Submit(configs[0], "TX1");  // no such backend in this fleet

  size_t ok = 0;
  size_t failed = 0;
  FleetCompletion done;
  while (fleet.WaitCompletion(&done)) {
    if (done.outcome.status == MeasureStatus::kOk) {
      ++ok;
    } else {
      ++failed;
      EXPECT_EQ(done.environment, "TX1");
      EXPECT_EQ(done.outcome.status, MeasureStatus::kPermanent);
    }
  }
  EXPECT_EQ(ok, configs.size() + 1);
  EXPECT_EQ(failed, 1u);

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.backends[0].completed, configs.size());  // every TX2 tag
  EXPECT_EQ(stats.backends[1].completed, 1u);              // the Xavier tag
  EXPECT_EQ(stats.backends[0].environment, "TX2");
  EXPECT_EQ(stats.backends[1].environment, "Xavier");
}

TEST(BackendFleetTest, SyncBatchDefersAnOutstandingAsyncBatchsCompletions) {
  // A sync MeasureBatch draining the shared fleet stream must hand back —
  // not swallow — completions that belong to an earlier async batch.
  const Scenario s = MakeScenario(95);
  const auto async_configs = SampleBatch(s.task, 10, 96);
  const auto sync_configs = SampleBatch(s.task, 10, 97);

  MeasurementBroker serial(s.task);
  const auto async_reference = serial.MeasureBatch(async_configs);
  const auto sync_reference = serial.MeasureBatch(sync_configs);

  MeasurementBroker broker(s.task, MakeDeviceFleet(s, 95, 2, 0.0, 0.0));
  const BatchTicket ticket = broker.SubmitBatch(async_configs);
  EXPECT_EQ(broker.MeasureBatch(sync_configs), sync_reference);

  std::vector<std::vector<double>> rows(async_configs.size());
  BrokerCompletion done;
  size_t received = 0;
  while (broker.WaitCompletion(&done)) {
    ASSERT_TRUE(done.ok);
    ASSERT_EQ(done.batch, ticket.id);
    rows[done.index] = done.row;
    ++received;
  }
  EXPECT_EQ(received, async_configs.size());
  EXPECT_EQ(rows, async_reference);
}

TEST(BackendFleetTest, FleetBusyTimeLandsInTheLedger) {
  const Scenario s = MakeScenario(91);
  const auto configs = SampleBatch(s.task, 10, 92);
  MeasurementBroker broker(s.task, MakeDeviceFleet(s, 91, 2, 0.0, 0.0));
  broker.MeasureBatch(configs);
  const FleetStats stats = broker.fleet_stats();
  double busy = 0.0;
  for (const auto& backend : stats.backends) {
    busy += backend.busy_seconds;
  }
  EXPECT_GT(busy, 0.0);
  EXPECT_GT(broker.stats().busy_seconds, 0.0);
  EXPECT_GT(broker.stats().batch_wall_seconds, 0.0);
}

}  // namespace
}  // namespace unicorn
