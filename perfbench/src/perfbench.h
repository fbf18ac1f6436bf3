// The repository benchmark: four campaign workloads measured from outside
// the library.
//
// Every number here is taken at a public boundary of a src/ module — a
// CampaignPolicy decorator around Propose/Absorb/WantsRefresh, a wrapper
// around PerformanceTask::measure, timed calls to LoadMeasurementTable and
// CausalModelEngine::Estimator, and before/after views of the public stats
// structs and the obs::MetricsRegistry. Nothing inside src/ is instrumented
// for the benchmark; the spans the library already records (engine, fleet,
// pool, campaign) are kept and complemented by the spans recorded here.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "unicorn/campaign.h"
#include "unicorn/task.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

// CPU seconds the whole process (every thread, exited ones included) has
// used. Unlike the wall clock it does not count time a hypervisor steals
// from the virtual CPUs, which on a shared host swings run-to-run wall times
// by tens of percent; the benchmark's gated timings are CPU seconds.
double CpuSeconds();

// A sample set with nearest-rank percentiles. Count and sum are exact;
// percentiles come from a uniform reservoir of at most kCapacity values, so
// the benchmark's own memory stays bounded (a fleet run times a million
// rounds) and cannot move the program's peak RSS.
class Samples {
 public:
  static constexpr size_t kCapacity = 1 << 16;
  void Add(double value);
  size_t size() const { return count_; }
  double Sum() const { return sum_; }
  double Mean() const;
  // Nearest-rank q-quantile (q in [0, 1]); 0 when empty.
  double Percentile(double q) const;

 private:
  std::vector<double> values_;
  size_t count_ = 0;
  double sum_ = 0.0;
  uint64_t rng_state_ = 0;  // fixed-seed replacement stream
};

// Nearest-rank percentiles are reported by name only when at least ten
// samples lie beyond them; this is the highest of `wanted` (ascending) that
// qualifies for `n` samples, or 0 when not even the first does.
double HighestValidPercentile(size_t n, const std::vector<double>& wanted);

// One named number with its unit, direction and sample count.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  // "lower" | "higher" | "" (not a goal, e.g. a count)
  size_t n = 0;        // samples behind the value
};

// Timing/counting ledger shared by every ProbedPolicy of one pass. The
// campaign thread is the only writer (CampaignPolicy callbacks are never
// concurrent), so it needs no lock.
struct PolicyLedger {
  bool detailed = false;         // traced pass: estimator split and spans
  bool truncate = false;         // stop policies once `deadline` passes
  Clock::time_point deadline{};

  size_t rounds = 0;
  Samples round_s;         // Propose entry -> Absorb return
  Samples round_wait_s;    // Propose return -> Absorb entry (measurement)
  Samples refresh_wait_s;  // WantsRefresh()==true -> next Propose entry
  Samples refresh_cpu_s;   // process CPU over the same interval
  Samples propose_s;       // inner Propose (estimator build split out)
  Samples estimator_build_s;
  Samples absorb_s;
  Samples first_round_s;   // round 0 (bootstrap / transfer replay)
  size_t rows_offered = 0;

  // Per refresh, read from EngineStats when the next Propose sees it.
  Samples engine_refresh_s;
  long long tests_requested = 0;
  long long tests_evaluated = 0;
  long long cache_hits = 0;
  long long cross_shard_hits = 0;
  size_t pairs_total = 0;
  size_t pairs_reused = 0;
};

// Per-refresh trail entry of one policy: what the engine looked like when
// the policy proposed after a refresh. The wide_refresh output check
// compares these against a serial engine.
struct TrailEntry {
  uint64_t fingerprint = 0;
  long long tests_requested = 0;
  bool operator==(const TrailEntry& other) const {
    return fingerprint == other.fingerprint && tests_requested == other.tests_requested;
  }
};

// CampaignPolicy decorator: times the policy's callbacks into a
// PolicyLedger, optionally retires the policy at the ledger's deadline
// (WantsRefresh false, then an empty proposal), and remembers the engine
// fingerprint at Finalize.
class ProbedPolicy : public unicorn::CampaignPolicy {
 public:
  ProbedPolicy(unicorn::CampaignPolicy* inner, PolicyLedger* ledger)
      : inner_(inner), ledger_(ledger) {}

  bool WantsRefresh(const unicorn::CampaignContext& ctx) override;
  std::vector<std::vector<double>> Propose(unicorn::CampaignContext& ctx) override;
  std::vector<std::string> ProposalEnvironments(size_t proposal_size) override {
    return inner_->ProposalEnvironments(proposal_size);
  }
  void Absorb(const std::vector<std::vector<double>>& configs,
              const std::vector<std::vector<double>>& rows,
              unicorn::CampaignContext& ctx) override;
  bool Finished() const override { return stopped_ || inner_->Finished(); }
  void Finalize(unicorn::CampaignContext& ctx) override;

  size_t rounds_absorbed() const { return rounds_absorbed_; }
  bool stopped() const { return stopped_; }
  bool finalized() const { return finalized_; }
  uint64_t fingerprint() const { return fingerprint_; }
  const std::vector<TrailEntry>& trail() const { return trail_; }

 private:
  unicorn::CampaignPolicy* inner_;
  PolicyLedger* ledger_;
  bool stopped_ = false;
  bool finalized_ = false;
  bool refresh_pending_ = false;
  size_t refreshes_seen_ = 0;
  size_t estimator_refresh_ = static_cast<size_t>(-1);
  size_t rounds_absorbed_ = 0;
  uint64_t fingerprint_ = 0;
  Clock::time_point refresh_start_{};
  double refresh_cpu_start_ = 0.0;
  Clock::time_point round_start_{};
  Clock::time_point propose_end_{};
  std::vector<TrailEntry> trail_;
};

// Wraps PerformanceTask::measure, the simulated device's one operation.
// Thread-safe: the broker pool and fleet workers call it concurrently.
class MeasureLedger {
 public:
  unicorn::PerformanceTask Wrap(unicorn::PerformanceTask task);
  void Record(double seconds);
  Samples Take();

 private:
  std::mutex mu_;
  Samples seconds_;  // guarded by mu_
};

// Snapshot pair of one registry histogram: the buckets are diffed, so
// earlier passes and set-up never leak into a pass's numbers.
class HistogramDiff {
 public:
  explicit HistogramDiff(std::string name);  // snapshot now
  // Nearest-rank percentile of the samples recorded since the snapshot
  // (bucket upper bound, as obs::Histogram reports it); also the count.
  double Percentile(double q, size_t* count) const;

 private:
  std::string name_;
  unicorn::obs::Histogram::Snapshot before_;
};

// Sums of the public stats structs over every campaign runner of a pass.
struct PlaneTotals {
  size_t broker_requests = 0;
  size_t broker_measured = 0;
  size_t broker_cache_hits = 0;
  size_t broker_batches = 0;
  double broker_busy_s = 0.0;
  double broker_active_s = 0.0;
  size_t fleet_submitted = 0;
  size_t fleet_retries = 0;
  size_t fleet_rerouted = 0;
  size_t fleet_failed = 0;
  double fleet_busy_s = 0.0;
  size_t pool_refreshes = 0;
  double pool_refresh_s = 0.0;
  double pool_overlap_s = 0.0;
  size_t pool_widest_batch = 0;
};

// One campaign of a pass, as a later pass can replay it: the traced half of
// a traced run re-runs the untraced half's first campaigns, so the two
// halves time the same work.
struct PlannedCampaign {
  size_t index = 0;          // campaign number; its inputs derive from it
  std::vector<size_t> caps;  // per policy: rounds absorbed, where cut short
  double wall_s = 0.0;       // wall of the campaign in the pass that ran it
  double cpu_s = 0.0;        // process CPU seconds of the same
};

// The totals the per-operation end-to-end metrics divide. Workloads that
// cycle through a fixed list of inputs count each input once (its average
// over the laps the pass ran), so the number of laps that fit in a run does
// not change the mix the metrics describe.
struct OpTotals {
  double ops = 0.0;
  double rounds = 0.0;        // policy rounds (propose -> absorb)
  double cpu_s = 0.0;
  double rows = 0.0;          // rows absorbed into engine tables
  double measurements = 0.0;  // fresh measurements
};

// Per-input tally for workloads that cycle through a fixed input list.
class InputTally {
 public:
  explicit InputTally(size_t inputs) : sums_(inputs) {}
  void Add(size_t input, double rounds, double cpu_s, double rows, double measurements);
  // Each input that ran at least once, weighted equally.
  OpTotals Totals() const;

 private:
  struct Sum {
    size_t runs = 0;
    double rounds = 0.0, cpu_s = 0.0, rows = 0.0, measurements = 0.0;
  };
  std::vector<Sum> sums_;
};

// What one pass over a workload measured.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;          // process CPU seconds of the pass
  size_t ops = 0;
  Samples op_s;                // the workload's operation wall times
  Samples op_cpu_s;            // their CPU seconds, where one op runs at a time
  size_t rows_absorbed = 0;    // engine rows gained, summed over engines
  size_t replayed = 0;         // measurements served from a recording
  PlaneTotals plane;
  PolicyLedger policy;
  Samples measure_s;           // detailed passes only
  OpTotals totals;
  std::vector<PlannedCampaign> plan;
  std::vector<Metric> workload;  // the workload's own end-to-end view
  std::map<std::string, double> layer;  // workload-specific per-layer values
};

// Outcome of a workload's output check against its oracle.
struct CheckResult {
  size_t checked = 0;
  size_t mismatched = 0;
  std::vector<Metric> extra;  // numbers only the oracle computes (edge F1)
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  // What one operation is, for the report ("campaign", "refresh", "round").
  virtual const char* op_name() const = 0;
  // Builds the inputs from the seed, the same ones on every call. Called
  // several times before the passes and again after the output check, to
  // time set-up at both ends of the run.
  virtual void Setup(uint64_t seed, const std::string& workdir) = 0;
  // Runs campaigns until `seconds` of wall have passed or, with `replay`,
  // exactly the listed campaigns. `detailed` turns on the estimator split,
  // the measure wrapper and benchmark-side spans.
  virtual PassResult RunPass(double seconds, bool detailed,
                             const std::vector<PlannedCampaign>* replay) = 0;
  // Longest traced half worth keeping: the trace holds every span in memory
  // and on disk, and some workloads record tens of thousands per second.
  virtual double max_traced_seconds() const { return 1e9; }
  // Compares every recorded result of the passes so far with the oracle.
  virtual CheckResult Check() = 0;
};

std::unique_ptr<Workload> MakeDebugFaults();
std::unique_ptr<Workload> MakeWideRefresh();
std::unique_ptr<Workload> MakeFleetTenants();
std::unique_ptr<Workload> MakeTransferReplay();

// Adds the stats-struct view of one finished (or aborted) campaign runner
// to the pass: broker, fleet and shard-pool ledgers.
void AccumulateRunner(unicorn::CampaignRunner& runner, PassResult* pass);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
