// The four workloads. Each builds its inputs from the seed alone, runs its
// operations in a closed loop (every policy waits for its rows before it
// proposes again), and keeps what its output check needs.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "bench/common.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "sysmodel/faults.h"
#include "sysmodel/systems.h"
#include "unicorn/backend/backend_fleet.h"
#include "unicorn/backend/binary_table.h"
#include "unicorn/backend/measurement_table.h"
#include "unicorn/backend/recorded_backend.h"
#include "unicorn/backend/simulated_device_backend.h"
#include "unicorn/debugger.h"
#include "unicorn/optimizer.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using namespace unicorn;  // NOLINT: the workloads speak the library's vocabulary

// Distinct, reproducible seeds derived from the workload seed.
uint64_t Derive(uint64_t seed, uint64_t a, uint64_t b = 0) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL + Mix64(a * 1000003ULL + b)) >> 1;
}

Clock::time_point After(Clock::time_point start, double seconds) {
  return start +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// Walks a pass's campaigns: numbered 0, 1, ... until the deadline, or
// exactly the replayed list.
class Schedule {
 public:
  Schedule(double seconds, const std::vector<PlannedCampaign>* replay)
      : deadline_(After(Clock::now(), seconds)), replay_(replay) {}
  Clock::time_point deadline() const { return deadline_; }
  // The next campaign's number and, when replaying, its caps.
  bool Next(size_t* index, const std::vector<size_t>** caps) {
    if (replay_ != nullptr) {
      if (next_ >= replay_->size()) {
        return false;
      }
      *index = (*replay_)[next_].index;
      *caps = &(*replay_)[next_].caps;
    } else {
      if (Clock::now() >= deadline_) {
        return false;
      }
      *index = next_;
      *caps = nullptr;
    }
    ++next_;
    return true;
  }

 private:
  Clock::time_point deadline_;
  const std::vector<PlannedCampaign>* replay_;
  size_t next_ = 0;
};

// Gain over the fault, averaged over the fault's objectives (the same
// definition as bench/common.cc uses for Table 2).
double MeanGain(const Fault& fault, const std::vector<double>& fixed_row) {
  if (fixed_row.empty() || fault.objectives.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const size_t obj : fault.objectives) {
    total += Gain(fault.measurement[obj], fixed_row[obj]);
  }
  return total / static_cast<double>(fault.objectives.size());
}

// What an output check compares per campaign.
struct Digest {
  std::vector<double> fixed_config;
  size_t measurements_used = 0;
  uint64_t fingerprint = 0;
  bool operator==(const Digest& other) const {
    return fixed_config == other.fixed_config && measurements_used == other.measurements_used &&
           fingerprint == other.fingerprint;
  }
};

// The workload's own timing view: the median plus the highest of `tail`
// with at least ten samples beyond it, named by that percentile.
void AddTimings(const std::string& base, const Samples& samples,
                const std::vector<double>& tail, std::vector<Metric>* out) {
  out->push_back({base + "_p50", samples.Percentile(0.5), "s", "lower", samples.size()});
  const double q = HighestValidPercentile(samples.size(), tail);
  if (q > 0.5) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s_p%g", base.c_str(), q * 100.0);
    out->push_back({name, samples.Percentile(q), "s", "lower", samples.size()});
  }
}

OpTotals RawTotals(const PassResult& pass) {
  return OpTotals{static_cast<double>(pass.ops), static_cast<double>(pass.policy.rounds),
                  pass.cpu_s,
                  static_cast<double>(pass.rows_absorbed),
                  static_cast<double>(pass.plane.broker_measured - pass.replayed)};
}

const std::vector<double> kTail90 = {0.6, 0.7, 0.75, 0.8, 0.9};
const std::vector<double> kTail99 = {0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99};

std::unique_ptr<BackendFleet> MakeFleet(std::vector<std::unique_ptr<MeasurementBackend>> b) {
  return std::make_unique<BackendFleet>(std::move(b));
}

// --- debug_faults -----------------------------------------------------------
//
// Single-fault debug campaigns back to back: the curated latency, energy and
// multi-objective faults of all six simulated systems on Xavier, measured
// in-process through the broker's thread pool.
class DebugFaults : public Workload {
 public:
  const char* name() const override { return "debug_faults"; }
  const char* op_name() const override { return "campaign"; }

  void Setup(uint64_t seed, const std::string&) override {
    models_.clear();
    weights_.clear();
    cases_.clear();
    records_.clear();
    const SystemId systems[] = {SystemId::kDeepstream, SystemId::kXception, SystemId::kBert,
                                SystemId::kDeepspeech, SystemId::kX264, SystemId::kSqlite};
    // selected[system][kind]: the faults each campaign debugs.
    std::vector<std::vector<std::vector<Fault>>> selected(6);
    std::vector<std::vector<std::vector<std::vector<ObjectiveGoal>>>> goals(6);
    for (size_t s = 0; s < 6; ++s) {
      SystemSpec spec;
      spec.num_events = 12;
      auto model = std::make_shared<SystemModel>(BuildSystem(systems[s], spec));
      Rng rng(Derive(seed, 1, s));
      const FaultCuration curation =
          CurateFaults(*model, Xavier(), DefaultWorkload(), kCurationSamples, &rng, 0.97);
      std::vector<double> weights(model->NumVars(), 0.0);
      for (const size_t obj : curation.objective_vars) {
        const auto w = TrueAceWeights(*model, obj, Xavier(), DefaultWorkload(),
                                      Derive(seed, 2, s), kAceContexts);
        for (size_t v = 0; v < w.size(); ++v) {
          weights[v] += w[v];
        }
      }
      for (const auto kind : {bench::FaultKind::kLatency, bench::FaultKind::kEnergy,
                              bench::FaultKind::kMulti}) {
        selected[s].push_back(bench::SelectFaults(*model, curation, kind, kFaultsPerKind));
        goals[s].emplace_back();
        for (const Fault& fault : selected[s].back()) {
          goals[s].back().push_back(GoalsForFault(curation, fault));
        }
      }
      models_.push_back(std::move(model));
      weights_.push_back(std::move(weights));
    }
    // Round-robin over systems and fault kinds, so any prefix of the list —
    // a run too short for a whole lap — is a balanced sample of it.
    for (size_t j = 0; j < kFaultsPerKind; ++j) {
      for (size_t k = 0; k < 3; ++k) {
        for (size_t s = 0; s < 6; ++s) {
          if (j < selected[s][k].size()) {
            cases_.push_back(Case{s, selected[s][k][j], goals[s][k][j],
                                  Derive(seed, 3, cases_.size())});
          }
        }
      }
    }
    if (cases_.empty()) {
      throw std::runtime_error("debug_faults: no curated faults for this seed");
    }
  }

  PassResult RunPass(double seconds, bool detailed,
                     const std::vector<PlannedCampaign>* replay) override {
    PassResult pass;
    pass.policy.detailed = detailed;
    std::vector<bool> seen(cases_.size(), false);
    InputTally tally(cases_.size());
    size_t fixed = 0, distinct = 0;
    double gain = 0.0, accuracy = 0.0, used = 0.0;
    const auto start = Clock::now();
    const double cpu_start = CpuSeconds();
    Schedule schedule(seconds, replay);
    size_t i = 0;
    const std::vector<size_t>* caps = nullptr;
    while (schedule.Next(&i, &caps)) {
      const size_t index = i % cases_.size();
      const Case& c = cases_[index];
      const auto t0 = Clock::now();
      const double cpu0 = CpuSeconds();
      const size_t rows0 = pass.rows_absorbed;
      const size_t measured0 = pass.plane.broker_measured;
      const size_t rounds0 = pass.policy.rounds;
      Outcome outcome = Run(c, /*serial=*/false, detailed, &pass.policy, &pass);
      const double cpu = CpuSeconds() - cpu0;
      pass.op_s.Add(SecondsSince(t0));
      pass.op_cpu_s.Add(cpu);
      pass.plan.push_back({i, {}, SecondsSince(t0), cpu});
      tally.Add(index, static_cast<double>(pass.policy.rounds - rounds0), cpu,
                static_cast<double>(pass.rows_absorbed - rows0),
                static_cast<double>(pass.plane.broker_measured - measured0));
      ++pass.ops;
      used += static_cast<double>(outcome.result.measurements_used);
      records_.push_back({index, outcome.digest});
      if (!seen[index]) {
        seen[index] = true;
        ++distinct;
        fixed += outcome.result.fixed ? 1 : 0;
        gain += MeanGain(c.fault, outcome.result.fixed_measurement);
        accuracy += AceWeightedJaccard(outcome.result.predicted_root_causes,
                                       c.fault.root_causes, weights_[c.system]);
      }
    }
    pass.wall_s = SecondsSince(start);
    pass.cpu_s = CpuSeconds() - cpu_start;
    pass.measure_s = measure_.Take();
    pass.totals = tally.Totals();
    AddTimings("fix_s", pass.op_s, kTail90, &pass.workload);
    AddTimings("fix_cpu_s", pass.op_cpu_s, kTail90, &pass.workload);
    const double n = static_cast<double>(std::max<size_t>(1, distinct));
    pass.workload.push_back({"measurements_per_fix", used / static_cast<double>(pass.ops),
                             "count", "lower", pass.ops});
    pass.workload.push_back({"fixed_ratio", fixed / n, "ratio", "higher", distinct});
    pass.workload.push_back({"gain_pct", gain / n, "%", "higher", distinct});
    pass.workload.push_back({"accuracy_pct", 100.0 * accuracy / n, "%", "higher", distinct});
    return pass;
  }

  CheckResult Check() override {
    CheckResult check;
    std::vector<std::unique_ptr<Digest>> oracle(cases_.size());
    for (const auto& record : records_) {
      if (oracle[record.case_index] == nullptr) {
        PassResult scratch;
        oracle[record.case_index] = std::make_unique<Digest>(
            Run(cases_[record.case_index], /*serial=*/true, false, &scratch.policy, &scratch)
                .digest);
      }
      ++check.checked;
      if (!(record.digest == *oracle[record.case_index])) {
        ++check.mismatched;
      }
    }
    return check;
  }

 private:
  static constexpr size_t kCurationSamples = 2000;
  static constexpr size_t kFaultsPerKind = 16;
  static constexpr int kAceContexts = 8;

  struct Case {
    size_t system = 0;
    Fault fault;
    std::vector<ObjectiveGoal> goals;
    uint64_t task_seed = 0;
  };
  struct Outcome {
    DebugResult result;
    Digest digest;
  };
  struct Record {
    size_t case_index = 0;
    Digest digest;
  };

  // One campaign: exactly UnicornDebugger::Debug (a runner over one
  // DebugPolicy) with the policy seen through the probe. The oracle runs
  // the same campaign with a serial engine and broker, which the library
  // guarantees is bit-identical.
  Outcome Run(const Case& c, bool serial, bool detailed, PolicyLedger* ledger,
              PassResult* pass) {
    DebugOptions options = bench::BenchDebugOptions();
    options.seed = c.task_seed;
    if (serial) {
      options.engine.num_threads = 1;
      options.broker.num_threads = 1;
    }
    PerformanceTask task =
        MakeSimulatedTask(models_[c.system], Xavier(), DefaultWorkload(), c.task_seed);
    if (detailed) {
      task = measure_.Wrap(std::move(task));
    }
    TRACE_SPAN("perfbench.campaign", "perfbench");
    CampaignRunner runner(task, ToCampaignOptions(options));
    DebugPolicy policy(options, c.fault.config, c.goals);
    ProbedPolicy probe(&policy, ledger);
    runner.Run({&probe});
    AccumulateRunner(runner, pass);
    Outcome outcome;
    outcome.result = policy.TakeResult();
    outcome.digest = Digest{outcome.result.fixed_config, outcome.result.measurements_used,
                            probe.fingerprint()};
    return outcome;
  }

  std::vector<std::shared_ptr<SystemModel>> models_;
  std::vector<std::vector<double>> weights_;  // ACE weights per system
  std::vector<Case> cases_;
  std::vector<Record> records_;
  MeasureLedger measure_;
};

// --- wide_refresh -----------------------------------------------------------
//
// The Table-3 incremental debug campaign on SQLite with 242 options and 288
// events, warm starts on (stale_epsilon 0.05, a full relearn every 8th
// refresh, 4 engine threads) and goals it cannot reach, so every round
// refreshes. The operation is one refresh, timed from outside: from the
// policy's WantsRefresh() answering yes to its next Propose().
class WideRefresh : public Workload {
 public:
  const char* name() const override { return "wide_refresh"; }
  const char* op_name() const override { return "refresh"; }

  void Setup(uint64_t seed, const std::string&) override {
    seed_ = seed;
    trail_.clear();
    SystemSpec spec;
    spec.num_events = 288;
    spec.extended_options = true;
    model_ = std::make_shared<SystemModel>(BuildSystem(SystemId::kSqlite, spec));
    Rng rng(Derive(seed, 1));
    const FaultCuration curation =
        CurateFaults(*model_, Xavier(), DefaultWorkload(), 600, &rng, 0.97);
    std::vector<Fault> faults;
    for (const auto kind : {bench::FaultKind::kLatency, bench::FaultKind::kEnergy,
                            bench::FaultKind::kMulti}) {
      if (faults.empty()) {
        faults = bench::SelectFaults(*model_, curation, kind, 1);
      }
    }
    if (faults.empty()) {
      throw std::runtime_error("wide_refresh: no curated fault for this seed");
    }
    fault_ = faults[0];
    // Near the floor of the distribution: the campaign never meets them and
    // spends its whole iteration budget refreshing.
    goals_ = GoalsForFault(curation, fault_, 0.02);
  }

  PassResult RunPass(double seconds, bool detailed,
                     const std::vector<PlannedCampaign>* replay) override {
    PassResult pass;
    pass.policy.detailed = detailed;
    const auto start = Clock::now();
    const double cpu_start = CpuSeconds();
    Schedule schedule(seconds, replay);
    pass.policy.truncate = replay == nullptr;
    pass.policy.deadline = schedule.deadline();
    size_t c = 0;
    const std::vector<size_t>* caps = nullptr;
    while (schedule.Next(&c, &caps)) {
      // A replayed campaign that was cut short stops after as many refreshes.
      const size_t cap = caps != nullptr && !caps->empty() ? caps->front() : 0;
      if (caps != nullptr && !caps->empty() && cap == 0) {
        continue;
      }
      std::vector<TrailEntry> trail;
      const auto t0 = Clock::now();
      const double cpu0 = CpuSeconds();
      const bool stopped =
          Campaign(c, /*serial=*/false, detailed, cap, &pass.policy, &pass, &trail, nullptr);
      pass.plan.push_back({c, stopped ? std::vector<size_t>{trail.size()} : std::vector<size_t>{},
                           SecondsSince(t0), CpuSeconds() - cpu0});
      if (c == 0 && trail_.empty()) {
        trail_ = std::move(trail);  // the output check replays campaign 0
      }
    }
    pass.wall_s = SecondsSince(start);
    pass.cpu_s = CpuSeconds() - cpu_start;
    pass.measure_s = measure_.Take();
    pass.op_s = pass.policy.refresh_wait_s;
    pass.op_cpu_s = pass.policy.refresh_cpu_s;
    pass.ops = pass.op_s.size();
    pass.totals = RawTotals(pass);
    AddTimings("refresh_s", pass.op_s, kTail90, &pass.workload);
    AddTimings("refresh_cpu_s", pass.op_cpu_s, kTail90, &pass.workload);
    return pass;
  }

  CheckResult Check() override {
    CheckResult check;
    const size_t k = std::min(kCheckedRefreshes, trail_.size());
    if (k == 0) {
      return check;
    }
    PassResult scratch;
    std::vector<TrailEntry> oracle;
    MixedGraph graph;
    Campaign(0, /*serial=*/true, false, k, &scratch.policy, &scratch, &oracle, &graph);
    for (size_t i = 0; i < k; ++i) {
      ++check.checked;
      if (i >= oracle.size() || !(oracle[i] == trail_[i])) {
        ++check.mismatched;
      }
    }
    check.extra.push_back({"edge_f1", EdgeF1(graph), "ratio", "higher", 1});
    return check;
  }

 private:
  static constexpr size_t kCheckedRefreshes = 9;

  static DebugOptions Options(bool serial) {
    DebugOptions options = bench::BenchDebugOptions();
    options.max_iterations = 40;
    options.stall_termination = 1000;
    options.model.fci.skeleton.alpha = 0.1;
    options.model.fci.skeleton.max_cond_size = 1;
    options.model.fci.skeleton.max_subsets = 8;
    options.model.fci.max_pds_cond_size = 1;
    options.model.fci.use_possible_dsep = false;
    options.model.entropic.latent.restarts = 1;
    options.model.entropic.latent.iterations = 20;
    options.engine.stale_epsilon = 0.05;
    options.engine.full_refresh_every = 8;
    options.engine.num_threads = serial ? 1 : 4;
    options.broker.num_threads = serial ? 1 : 4;
    return options;
  }

  // Campaign `c` (its own task seed); `max_iterations` 0 keeps the default.
  // Returns whether the ledger's deadline cut it short.
  bool Campaign(size_t c, bool serial, bool detailed, size_t max_iterations,
                PolicyLedger* ledger, PassResult* pass, std::vector<TrailEntry>* trail,
                MixedGraph* graph) {
    DebugOptions options = Options(serial);
    options.seed = Derive(seed_, 4, c);
    if (max_iterations > 0) {
      options.max_iterations = max_iterations;
    }
    PerformanceTask task = MakeSimulatedTask(model_, Xavier(), DefaultWorkload(), options.seed);
    if (detailed) {
      task = measure_.Wrap(std::move(task));
    }
    TRACE_SPAN("perfbench.campaign", "perfbench");
    CampaignRunner runner(task, ToCampaignOptions(options));
    DebugPolicy policy(options, fault_.config, goals_);
    ProbedPolicy probe(&policy, ledger);
    runner.Run({&probe});
    AccumulateRunner(runner, pass);
    *trail = probe.trail();
    if (graph != nullptr) {
      *graph = policy.result().final_graph;
    }
    return probe.stopped();
  }

  // Adjacency F1 of a learned graph against the simulator's true graph.
  double EdgeF1(const MixedGraph& learned) const {
    const MixedGraph truth = model_->GroundTruthGraph();
    if (learned.NumNodes() != truth.NumNodes()) {
      return 0.0;
    }
    double tp = 0.0, fp = 0.0, fn = 0.0;
    for (size_t a = 0; a < truth.NumNodes(); ++a) {
      for (size_t b = a + 1; b < truth.NumNodes(); ++b) {
        const bool in_truth = truth.HasEdge(a, b);
        const bool in_learned = learned.HasEdge(a, b);
        tp += in_truth && in_learned ? 1.0 : 0.0;
        fp += !in_truth && in_learned ? 1.0 : 0.0;
        fn += in_truth && !in_learned ? 1.0 : 0.0;
      }
    }
    return tp > 0.0 ? 2.0 * tp / (2.0 * tp + fp + fn) : 0.0;
  }

  uint64_t seed_ = 0;
  std::shared_ptr<SystemModel> model_;
  Fault fault_;
  std::vector<ObjectiveGoal> goals_;
  std::vector<TrailEntry> trail_;
  MeasureLedger measure_;
};

// --- fleet_tenants ----------------------------------------------------------
//
// Sixteen tenants, one objective group each — twelve light OptimizePolicys
// whose only refresh is the bootstrap one and four DebugPolicys — through
// the pipelined RunAsyncGrouped over two zero-service-time simulated devices
// with consecutive seeds and 10% transient failures. The operation is one
// tenant round, Propose entry to Absorb return.
class FleetTenants : public Workload {
 public:
  const char* name() const override { return "fleet_tenants"; }
  const char* op_name() const override { return "round"; }

  void Setup(uint64_t seed, const std::string&) override {
    seed_ = seed;
    records_.clear();
    SystemSpec spec;
    spec.num_events = 12;
    model_ = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
    Rng rng(Derive(seed, 1));
    const FaultCuration curation =
        CurateFaults(*model_, Tx2(), DefaultWorkload(), 800, &rng, 0.97);
    // Debug tenants cycle through every curated fault, so a run averages
    // over many faults instead of resting on one.
    faults_.clear();
    for (const Fault& fault : curation.faults) {
      if (!fault.root_causes.empty()) {
        faults_.push_back({fault, GoalsForFault(curation, fault)});
      }
    }
    if (faults_.empty()) {
      throw std::runtime_error("fleet_tenants: no curated fault for this seed");
    }
    DataTable meta(model_->variables());
    objective_ = *meta.IndexOf(kLatencyName);
    task_seed_ = Derive(seed, 2);
    task_ = MakeSimulatedTask(model_, Tx2(), DefaultWorkload(), task_seed_);
  }

  double max_traced_seconds() const override { return 0.5; }

  PassResult RunPass(double seconds, bool detailed,
                     const std::vector<PlannedCampaign>* replay) override {
    PassResult pass;
    pass.policy.detailed = detailed;
    const auto start = Clock::now();
    const double cpu_start = CpuSeconds();
    Schedule schedule(seconds, replay);
    pass.policy.truncate = replay == nullptr;
    pass.policy.deadline = schedule.deadline();
    size_t aborted_tenants = 0, aborted_campaigns = 0;
    size_t c = 0;
    const std::vector<size_t>* caps = nullptr;
    while (schedule.Next(&c, &caps)) {
      std::vector<size_t> absorbed;
      std::vector<uint64_t> fingerprints;
      const auto t0 = Clock::now();
      const double cpu0 = CpuSeconds();
      const size_t aborted =
          Campaign(c, caps, /*oracle=*/false, detailed, &pass, &absorbed, &fingerprints);
      pass.plan.push_back({c, absorbed, SecondsSince(t0), CpuSeconds() - cpu0});
      aborted_tenants += aborted;
      aborted_campaigns += aborted > 0 ? 1 : 0;
      records_.push_back(Record{c, std::move(absorbed), std::move(fingerprints)});
    }
    pass.wall_s = SecondsSince(start);
    pass.cpu_s = CpuSeconds() - cpu_start;
    pass.measure_s = measure_.Take();
    pass.op_s = pass.policy.round_s;
    pass.ops = pass.op_s.size();
    pass.totals = RawTotals(pass);
    AddTimings("round_s", pass.op_s, kTail99, &pass.workload);
    const double submitted = static_cast<double>(std::max<size_t>(1, pass.plane.fleet_submitted));
    pass.workload.push_back({"failed_ratio", pass.plane.fleet_failed / submitted, "ratio",
                             "lower", pass.plane.fleet_submitted});
    pass.workload.push_back({"retry_ratio", pass.plane.fleet_retries / submitted, "ratio",
                             "lower", pass.plane.fleet_submitted});
    pass.workload.push_back({"aborted_tenants", static_cast<double>(aborted_tenants), "count",
                             "lower", pass.plan.size()});
    pass.layer["campaign.aborted_tenants"] = static_cast<double>(aborted_tenants);
    pass.layer["campaign.aborted_campaigns"] = static_cast<double>(aborted_campaigns);
    return pass;
  }

  CheckResult Check() override {
    // Every tenant's table must equal what a synchronous RunGrouped on a
    // plain pool broker produces for the same policy, capped at the rounds
    // the tenant absorbed (an aborted or truncated tenant holds a prefix of
    // its full campaign, and the cap makes the oracle stop at that prefix).
    // The oracle costs about as much as the campaign, so it covers as many
    // campaigns as its time budget allows (at least one), picked coarse to
    // fine over the whole run — the first, the last, the middle, the
    // quarters, ... — so early, late and aborted campaigns are all sampled.
    CheckResult check;
    const auto start = Clock::now();
    size_t campaigns = 0;
    for (const size_t r : CoarseToFine(records_.size())) {
      if (campaigns > 0 && SecondsSince(start) > kCheckBudgetSeconds) {
        break;
      }
      const Record& record = records_[r];
      std::vector<uint64_t> oracle;
      PassResult scratch;
      Campaign(record.campaign, &record.caps, /*oracle=*/true, false, &scratch, nullptr,
               &oracle);
      ++campaigns;
      for (size_t t = 0; t < record.fingerprints.size(); ++t) {
        ++check.checked;
        if (oracle[t] != record.fingerprints[t]) {
          ++check.mismatched;
        }
      }
    }
    check.extra.push_back({"checked_campaigns", static_cast<double>(campaigns), "count", "",
                           records_.size()});
    return check;
  }

 private:
  static constexpr size_t kLight = 12;
  static constexpr size_t kDebug = 4;
  static constexpr int kDevices = 2;
  static constexpr double kCheckBudgetSeconds = 6.0;

  struct Record {
    size_t campaign = 0;
    std::vector<size_t> caps;  // rounds absorbed per tenant
    std::vector<uint64_t> fingerprints;
  };

  OptimizeOptions LightOptions(size_t c, size_t i) const {
    OptimizeOptions options;
    options.initial_samples = 8;
    options.candidates_per_round = 1;
    options.max_iterations = 600;
    options.relearn_every = 1000000;  // the bootstrap refresh only
    options.explore_probability = 0.65;
    options.seed = Derive(seed_, 10 + c, i);
    return options;
  }

  DebugOptions DebugTenantOptions(size_t c, size_t i) const {
    DebugOptions options = bench::BenchDebugOptions();
    options.initial_samples = 16;
    options.max_iterations = 6;
    options.engine.num_threads = 1;
    options.seed = Derive(seed_, 20 + c, i);
    return options;
  }

  std::unique_ptr<BackendFleet> Fleet(bool detailed) {
    std::vector<std::unique_ptr<MeasurementBackend>> backends;
    for (int b = 0; b < kDevices; ++b) {
      DeviceProfile profile;
      profile.name = "tx2-" + std::to_string(b);
      profile.seed = 800 + static_cast<uint64_t>(b);  // the repo's consecutive device seeds
      profile.transient_failure_rate = 0.1;           // as src/README.md's fleet example
      PerformanceTask task = task_;
      if (detailed) {
        task = measure_.Wrap(std::move(task));
      }
      backends.push_back(std::make_unique<SimulatedDeviceBackend>(task, profile));
    }
    return MakeFleet(std::move(backends));
  }

  // Runs campaign `c`, every tenant capped at `caps` rounds absorbed when
  // given (a tenant capped at 0 does not run). Measured mode: pipelined
  // async over the fleet, each tenant's rounds absorbed go to `caps_out`,
  // and the result is how many tenants the runner's abort left unfinished.
  // Oracle mode: synchronous RunGrouped on a pool broker. Either way
  // `fingerprints` receives each tenant's shard fingerprint.
  size_t Campaign(size_t c, const std::vector<size_t>* caps, bool oracle, bool detailed,
                  PassResult* pass, std::vector<size_t>* caps_out,
                  std::vector<uint64_t>* fingerprints) {
    DebugOptions base = DebugTenantOptions(c, 0);
    CampaignOptions options = ToCampaignOptions(base);
    options.refresh_threads = 1;
    options.pipeline = true;
    options.broker.num_threads = 1;
    std::unique_ptr<CampaignRunner> runner =
        oracle ? std::make_unique<CampaignRunner>(task_, options)
               : std::make_unique<CampaignRunner>(task_, options, Fleet(detailed));

    const size_t tenants = kLight + kDebug;
    std::vector<std::unique_ptr<CampaignPolicy>> inner;
    std::vector<std::unique_ptr<ProbedPolicy>> probes;
    std::vector<GroupedPolicy> grouped;
    const std::vector<size_t> objective = {objective_};
    for (size_t t = 0; t < tenants; ++t) {
      // Rounds absorbed R -> R-1 candidate / repair rounds after round 0.
      const size_t cap = caps != nullptr && (*caps)[t] > 0 ? (*caps)[t] - 1 : 0;
      if (t < kLight) {
        OptimizeOptions light = LightOptions(c, t);
        if (caps != nullptr) {
          light.max_iterations = cap;
        }
        inner.push_back(std::make_unique<OptimizePolicy>(light, objective));
      } else {
        DebugOptions debug = DebugTenantOptions(c, t);
        if (caps != nullptr) {
          debug.max_iterations = cap;
        }
        const auto& [fault, goals] = faults_[(c * kDebug + t - kLight) % faults_.size()];
        inner.push_back(std::make_unique<DebugPolicy>(debug, fault.config, goals));
      }
      probes.push_back(std::make_unique<ProbedPolicy>(inner.back().get(), &pass->policy));
      grouped.push_back(GroupedPolicy{probes.back().get(), "tenant-" + std::to_string(t)});
    }
    // A tenant capped at 0 absorbed nothing: it is compared on its empty
    // table.
    std::vector<GroupedPolicy> active;
    for (size_t t = 0; t < tenants; ++t) {
      if (caps == nullptr || (*caps)[t] > 0) {
        active.push_back(grouped[t]);
      }
    }
    size_t aborted = 0;
    if (oracle) {
      runner->RunGrouped(active);
    } else {
      TRACE_SPAN("perfbench.campaign", "perfbench");
      try {
        runner->RunAsyncGrouped(active);
      } catch (const std::runtime_error&) {
        // The runner abandons the campaign on the first request the fleet
        // gives up on; the tenants still running are counted, not retried.
        for (const GroupedPolicy& tenant : active) {
          const auto* probe = static_cast<const ProbedPolicy*>(tenant.policy);
          aborted += probe->finalized() || probe->stopped() ? 0 : 1;
        }
      }
      AccumulateRunner(*runner, pass);
    }
    for (size_t t = 0; t < tenants; ++t) {
      const size_t shard = runner->pool().ShardForGroup(grouped[t].group);
      fingerprints->push_back(runner->pool().shard(shard).data_fingerprint());
      if (caps_out != nullptr) {
        caps_out->push_back(probes[t]->rounds_absorbed());
      }
    }
    return aborted;
  }

  // 0, n-1, then every index of a grid that halves each step: any prefix
  // of the order is spread over [0, n).
  static std::vector<size_t> CoarseToFine(size_t n) {
    std::vector<size_t> order;
    std::vector<bool> taken(n, false);
    const auto take = [&](size_t i) {
      if (i < n && !taken[i]) {
        taken[i] = true;
        order.push_back(i);
      }
    };
    take(0);
    take(n - 1);
    for (size_t step = std::max<size_t>(1, n / 2);; step = std::max<size_t>(1, step / 2)) {
      for (size_t i = 0; i < n; i += step) {
        take(i);
      }
      if (step == 1) {
        break;
      }
    }
    return order;
  }

  uint64_t seed_ = 0;
  std::shared_ptr<SystemModel> model_;
  std::vector<std::pair<Fault, std::vector<ObjectiveGoal>>> faults_;
  size_t objective_ = 0;  // the light tenants minimize latency
  uint64_t task_seed_ = 0;
  PerformanceTask task_;
  std::vector<Record> records_;
  MeasureLedger measure_;
};

// --- transfer_replay --------------------------------------------------------
//
// Record -> replay -> debug transfer campaigns (Fig. 16). Set-up records a
// Xavier table through a one-device fleet and persists it as CSV v2 and as
// UNICTBL1. Each campaign loads the recording in both formats, replays one
// of them (alternating) through TransferPolicy over a RecordedBackend plus
// two zero-sleep TX2 devices, and debugs a TX2 fault for a short repair
// budget.
class TransferReplay : public Workload {
 public:
  const char* name() const override { return "transfer_replay"; }
  const char* op_name() const override { return "campaign"; }

  void Setup(uint64_t seed, const std::string& workdir) override {
    records_.clear();
    cases_.clear();
    csv_path_ = workdir + "/transfer_source.csv";
    bin_path_ = workdir + "/transfer_source.utbl";
    SystemSpec spec;
    spec.num_events = 12;
    model_ = std::make_shared<SystemModel>(BuildSystem(SystemId::kXception, spec));
    {
      const uint64_t source_seed = Derive(seed, 1);
      std::vector<std::unique_ptr<MeasurementBackend>> backends;
      DeviceProfile profile;
      profile.name = "xavier-0";
      profile.seed = 600;
      backends.push_back(MakeDeviceBackend(model_, Xavier(), DefaultWorkload(), source_seed,
                                           std::move(profile)));
      MeasurementBroker recorder(
          MakeSimulatedTask(model_, Xavier(), DefaultWorkload(), source_seed),
          MakeFleet(std::move(backends)));
      Rng rng(Derive(seed, 2));
      std::vector<std::vector<double>> configs;
      for (size_t i = 0; i < kRecordRows; ++i) {
        configs.push_back(model_->SampleConfig(&rng));
      }
      recorder.MeasureBatch(configs, std::vector<std::string>(configs.size(), Xavier().name));
      MeasurementTable table;
      if (!recorder.SaveCache(csv_path_) || !LoadMeasurementTable(csv_path_, &table) ||
          !SaveMeasurementTableBinary(bin_path_, table)) {
        throw std::runtime_error("transfer_replay: cannot persist the source recording");
      }
    }
    Rng rng(Derive(seed, 3));
    curation_ = CurateFaults(*model_, Tx2(), DefaultWorkload(), 1000, &rng, 0.97);
    for (const auto kind : {bench::FaultKind::kEnergy, bench::FaultKind::kLatency,
                            bench::FaultKind::kMulti}) {
      for (const Fault& fault : bench::SelectFaults(*model_, curation_, kind, kFaultsPerKind)) {
        // Goals beyond reach (1% of the 2nd-percentile target): every
        // campaign spends the same short repair budget, so campaigns cost
        // alike and the replay, absorb and tall-table refreshes dominate.
        std::vector<ObjectiveGoal> goals = GoalsForFault(curation_, fault, 0.02);
        for (ObjectiveGoal& goal : goals) {
          goal.threshold *= 0.01;
        }
        cases_.push_back(Case{fault, std::move(goals), Derive(seed, 4, cases_.size())});
      }
    }
    if (cases_.empty()) {
      throw std::runtime_error("transfer_replay: no curated faults for this seed");
    }
  }

  PassResult RunPass(double seconds, bool detailed,
                     const std::vector<PlannedCampaign>* replay) override {
    PassResult pass;
    pass.policy.detailed = detailed;
    std::vector<bool> seen(cases_.size(), false);
    InputTally tally(cases_.size());
    size_t distinct = 0;
    double gain = 0.0, used = 0.0;
    Samples load_csv, load_bin;
    const auto start = Clock::now();
    const double cpu_start = CpuSeconds();
    Schedule schedule(seconds, replay);
    size_t i = 0;
    const std::vector<size_t>* caps = nullptr;
    while (schedule.Next(&i, &caps)) {
      const size_t index = i % cases_.size();
      const bool binary = (i / cases_.size() + index) % 2 == 1;
      const auto t0 = Clock::now();
      const double cpu0 = CpuSeconds();
      const size_t rows0 = pass.rows_absorbed;
      const size_t fresh0 = pass.plane.broker_measured - pass.replayed;
      const size_t rounds0 = pass.policy.rounds;
      Outcome outcome = Run(cases_[index], binary, false, detailed, &pass.policy, &pass);
      const double cpu = CpuSeconds() - cpu0;
      pass.op_s.Add(SecondsSince(t0));
      pass.op_cpu_s.Add(cpu);
      pass.plan.push_back({i, {}, SecondsSince(t0), cpu});
      tally.Add(index, static_cast<double>(pass.policy.rounds - rounds0), cpu,
                static_cast<double>(pass.rows_absorbed - rows0),
                static_cast<double>(pass.plane.broker_measured - pass.replayed - fresh0));
      ++pass.ops;
      load_csv.Add(outcome.load_csv_s);
      load_bin.Add(outcome.load_bin_s);
      used += static_cast<double>(outcome.result.measurements_used);
      records_.push_back(Record{index, binary, outcome.formats_agree, outcome.digest});
      if (!seen[index]) {
        seen[index] = true;
        ++distinct;
        gain += MeanGain(cases_[index].fault, outcome.result.fixed_measurement);
      }
      table_rows_ = outcome.table_rows;
    }
    pass.wall_s = SecondsSince(start);
    pass.cpu_s = CpuSeconds() - cpu_start;
    pass.measure_s = measure_.Take();
    pass.totals = tally.Totals();
    AddTimings("fix_s", pass.op_s, kTail90, &pass.workload);
    AddTimings("fix_cpu_s", pass.op_cpu_s, kTail90, &pass.workload);
    const double n = static_cast<double>(std::max<size_t>(1, distinct));
    pass.workload.push_back({"measurements_per_fix", used / static_cast<double>(pass.ops),
                             "count", "lower", pass.ops});
    pass.workload.push_back({"gain_pct", gain / n, "%", "higher", distinct});
    const double submitted = static_cast<double>(std::max<size_t>(1, pass.plane.fleet_submitted));
    pass.workload.push_back({"failed_ratio", pass.plane.fleet_failed / submitted, "ratio",
                             "lower", pass.plane.fleet_submitted});
    pass.layer["table.load_csv_s"] = load_csv.Mean();
    pass.layer["table.load_bin_s"] = load_bin.Mean();
    pass.layer["table.rows"] = static_cast<double>(table_rows_);
    pass.layer["recorded.replay_s"] = pass.policy.first_round_s.Mean();
    return pass;
  }

  CheckResult Check() override {
    // The CSV and binary recordings must parse to the same table, and the
    // oracle replays the other format through a serial engine.
    CheckResult check;
    std::vector<std::unique_ptr<Digest>> oracle(cases_.size());
    for (const auto& record : records_) {
      if (oracle[record.case_index] == nullptr) {
        PassResult scratch;
        oracle[record.case_index] = std::make_unique<Digest>(
            Run(cases_[record.case_index], !record.binary, true, false, &scratch.policy,
                &scratch)
                .digest);
      }
      ++check.checked;
      if (!record.formats_agree || !(record.digest == *oracle[record.case_index])) {
        ++check.mismatched;
      }
    }
    return check;
  }

 private:
  static constexpr size_t kRecordRows = 2000;
  static constexpr size_t kFaultsPerKind = 8;
  static constexpr size_t kMaxIterations = 3;

  struct Case {
    Fault fault;
    std::vector<ObjectiveGoal> goals;
    uint64_t task_seed = 0;
  };
  struct Outcome {
    DebugResult result;
    Digest digest;
    double load_csv_s = 0.0;
    double load_bin_s = 0.0;
    bool formats_agree = false;
    size_t table_rows = 0;
  };

  static bool SameTable(const MeasurementTable& a, const MeasurementTable& b) {
    if (a.num_options != b.num_options || a.num_vars != b.num_vars ||
        a.entries.size() != b.entries.size()) {
      return false;
    }
    for (size_t i = 0; i < a.entries.size(); ++i) {
      if (a.entries[i].config != b.entries[i].config || a.entries[i].row != b.entries[i].row ||
          a.entries[i].provenance != b.entries[i].provenance) {
        return false;
      }
    }
    return true;
  }
  struct Record {
    size_t case_index = 0;
    bool binary = false;
    bool formats_agree = false;
    Digest digest;
  };

  Outcome Run(const Case& c, bool binary, bool serial, bool detailed, PolicyLedger* ledger,
              PassResult* pass) {
    TRACE_SPAN("perfbench.campaign", "perfbench");
    Outcome outcome;
    // Both parsers read the recording every campaign (so every campaign
    // costs the same); the two tables must agree, and `binary` picks the
    // one replayed.
    MeasurementTable csv, bin;
    bool loaded = false;
    {
      TRACE_SPAN("table.load_csv", "perfbench");
      const auto start = Clock::now();
      loaded = LoadMeasurementTable(csv_path_, &csv);
      outcome.load_csv_s = SecondsSince(start);
    }
    {
      TRACE_SPAN("table.load_bin", "perfbench");
      const auto start = Clock::now();
      loaded = LoadMeasurementTable(bin_path_, &bin) && loaded;
      outcome.load_bin_s = SecondsSince(start);
    }
    if (!loaded) {
      throw std::runtime_error("transfer_replay: cannot load the source recording");
    }
    outcome.formats_agree = SameTable(csv, bin);
    MeasurementTable table = std::move(binary ? bin : csv);
    outcome.table_rows = table.entries.size();

    DebugOptions options = bench::BenchDebugOptions();
    options.initial_samples = 25;
    options.max_iterations = kMaxIterations;
    options.seed = c.task_seed;
    options.environment = Tx2().name;
    if (serial) {
      options.engine.num_threads = 1;
    }
    PerformanceTask task = MakeSimulatedTask(model_, Tx2(), DefaultWorkload(), c.task_seed);
    if (detailed) {
      task = measure_.Wrap(std::move(task));
    }
    std::vector<std::unique_ptr<MeasurementBackend>> backends;
    backends.push_back(std::make_unique<RecordedBackend>(table, "xavier-recorded", 1));
    for (int b = 0; b < 2; ++b) {
      DeviceProfile profile;
      profile.name = "tx2-" + std::to_string(b);
      profile.seed = 700 + static_cast<uint64_t>(b);
      profile.environment = Tx2().name;
      backends.push_back(std::make_unique<SimulatedDeviceBackend>(task, profile));
    }
    CampaignRunner runner(task, ToCampaignOptions(options), MakeFleet(std::move(backends)));
    DebugPolicy inner(options, c.fault.config, c.goals);
    TransferOptions transfer_options;
    transfer_options.source_environment = Xavier().name;
    transfer_options.target_environment = Tx2().name;
    TransferPolicy transfer(transfer_options, std::move(table), &inner);
    ProbedPolicy probe(&transfer, ledger);
    runner.Run({&probe});
    AccumulateRunner(runner, pass);
    pass->replayed += transfer.stats().source_rows;
    outcome.result = inner.TakeResult();
    outcome.digest = Digest{outcome.result.fixed_config, outcome.result.measurements_used,
                            probe.fingerprint()};
    return outcome;
  }

  std::shared_ptr<SystemModel> model_;
  FaultCuration curation_;
  std::vector<Case> cases_;
  std::vector<Record> records_;
  std::string csv_path_;
  std::string bin_path_;
  size_t table_rows_ = 0;
  MeasureLedger measure_;
};

}  // namespace

std::unique_ptr<Workload> MakeDebugFaults() { return std::make_unique<DebugFaults>(); }
std::unique_ptr<Workload> MakeWideRefresh() { return std::make_unique<WideRefresh>(); }
std::unique_ptr<Workload> MakeFleetTenants() { return std::make_unique<FleetTenants>(); }
std::unique_ptr<Workload> MakeTransferReplay() { return std::make_unique<TransferReplay>(); }

}  // namespace perfbench
