// Fleet determinism and failure-path coverage: batched-through-fleet ==
// serial row-for-row at 1..4 backends (with and without injected transient
// failures), retries reroute and converge, permanent failures circuit-break
// without losing queued requests, and recorded replay round-trips through
// the persisted measurement table.
#include "unicorn/backend/backend_fleet.h"

#include <gtest/gtest.h>

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

// A fleet of `n` homogeneous simulated devices: same model, same
// environment, same task seed — rows are identical wherever a request
// lands, which is exactly what the bit-identity guarantee needs.
std::unique_ptr<BackendFleet> MakeDeviceFleet(const Scenario& s, uint64_t task_seed, int n,
                                              double transient_rate, double permanent_rate,
                                              FleetOptions options = {}) {
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
  return std::make_unique<BackendFleet>(std::move(backends), options);
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
    // A 30% transient rate across every device: with max_attempts=6 the
    // chance any of 60 requests exhausts its retries is ~60 * 0.3^6 < 5%,
    // and the seeded draws make the outcome reproducible, not flaky.
    FleetOptions options;
    options.max_attempts = 6;
    MeasurementBroker broker(s.task, MakeDeviceFleet(s, 41, n, 0.3, 0.0, options));
    EXPECT_EQ(broker.MeasureBatch(configs), reference) << "backends=" << n;

    const FleetStats stats = broker.fleet_stats();
    EXPECT_EQ(stats.completed, configs.size());
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GT(stats.retries, 0u);    // ~30% of attempts fail: retries must show up
    EXPECT_GT(stats.rerouted, 0u);   // the excluded-backend set sends them elsewhere
    EXPECT_EQ(broker.stats().failures, 0u);
    size_t transient_total = 0;
    for (const auto& backend : stats.backends) {
      transient_total += backend.transient_failures;
    }
    EXPECT_EQ(transient_total, stats.retries);
    // Every successful row was measured exactly once; retries are extra
    // attempts on top.
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
