// Outside-in instrumentation: sample sets, the CampaignPolicy decorator, the
// measure wrapper, the registry histogram diff, and the stats-struct accumulation.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "perfbench.h"
#include "util/hash.h"

namespace perfbench {

using unicorn::CampaignContext;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

void Samples::Add(double value) {
  ++count_;
  sum_ += value;
  if (values_.size() < kCapacity) {
    values_.push_back(value);
    return;
  }
  // Reservoir sampling: the count_-th value replaces a random slot with
  // probability kCapacity / count_.
  rng_state_ += 0x9e3779b97f4a7c15ULL;
  const uint64_t slot = unicorn::Mix64(rng_state_) % count_;
  if (slot < kCapacity) {
    values_[slot] = value;
  }
}

double Samples::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Samples::Percentile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double HighestValidPercentile(size_t n, const std::vector<double>& wanted) {
  double best = 0.0;
  for (const double q : wanted) {
    // Samples strictly beyond the nearest-rank q-quantile.
    const double beyond =
        static_cast<double>(n) - std::ceil(q * static_cast<double>(n) - 1e-9);
    if (beyond >= 10.0) {
      best = q;
    }
  }
  return best;
}

bool ProbedPolicy::WantsRefresh(const CampaignContext& ctx) {
  if (stopped_ || (ledger_->truncate && Clock::now() >= ledger_->deadline)) {
    return false;
  }
  const bool wants = inner_->WantsRefresh(ctx);
  if (wants) {
    refresh_pending_ = true;
    refresh_cpu_start_ = CpuSeconds();
    refresh_start_ = Clock::now();
  }
  return wants;
}

std::vector<std::vector<double>> ProbedPolicy::Propose(CampaignContext& ctx) {
  const auto entry = Clock::now();
  if (refresh_pending_) {
    refresh_pending_ = false;
    ledger_->refresh_wait_s.Add(std::chrono::duration<double>(entry - refresh_start_).count());
    ledger_->refresh_cpu_s.Add(CpuSeconds() - refresh_cpu_start_);
  }
  const unicorn::EngineStats& stats = ctx.engine.stats();
  if (stats.refreshes != refreshes_seen_) {
    refreshes_seen_ = stats.refreshes;
    ledger_->engine_refresh_s.Add(stats.refresh_seconds);
    ledger_->tests_requested += stats.tests_requested;
    ledger_->tests_evaluated += stats.tests_evaluated;
    ledger_->cache_hits += stats.cache_hits;
    ledger_->cross_shard_hits += stats.cross_shard_hits;
    ledger_->pairs_total += stats.pairs_total;
    ledger_->pairs_reused += stats.pairs_reused;
    trail_.push_back(TrailEntry{ctx.engine.data_fingerprint(), stats.tests_requested});
  }
  if (stopped_ || (ledger_->truncate && entry >= ledger_->deadline)) {
    stopped_ = true;
    return {};
  }
  round_start_ = entry;
  auto propose_start = entry;
  if (ledger_->detailed && ctx.engine.HasModel() && estimator_refresh_ != refreshes_seen_) {
    // The estimator is cached per refresh, so building it here first moves
    // its cost out of the policy's Propose without changing any result.
    estimator_refresh_ = refreshes_seen_;
    {
      TRACE_SPAN("effects.estimator_build", "perfbench");
      ctx.engine.Estimator();
    }
    propose_start = Clock::now();
    ledger_->estimator_build_s.Add(
        std::chrono::duration<double>(propose_start - entry).count());
  }
  std::vector<std::vector<double>> proposal = inner_->Propose(ctx);
  propose_end_ = Clock::now();
  ledger_->propose_s.Add(std::chrono::duration<double>(propose_end_ - propose_start).count());
  return proposal;
}

void ProbedPolicy::Absorb(const std::vector<std::vector<double>>& configs,
                          const std::vector<std::vector<double>>& rows, CampaignContext& ctx) {
  const auto entry = Clock::now();
  ledger_->round_wait_s.Add(std::chrono::duration<double>(entry - propose_end_).count());
  inner_->Absorb(configs, rows, ctx);
  const auto done = Clock::now();
  ledger_->absorb_s.Add(std::chrono::duration<double>(done - entry).count());
  const double round = std::chrono::duration<double>(done - round_start_).count();
  ledger_->round_s.Add(round);
  if (rounds_absorbed_ == 0) {
    ledger_->first_round_s.Add(round);
  }
  ledger_->rows_offered += rows.size();
  ++ledger_->rounds;
  ++rounds_absorbed_;
}

void ProbedPolicy::Finalize(CampaignContext& ctx) {
  inner_->Finalize(ctx);
  fingerprint_ = ctx.engine.data_fingerprint();
  finalized_ = true;
}

unicorn::PerformanceTask MeasureLedger::Wrap(unicorn::PerformanceTask task) {
  auto inner = std::move(task.measure);
  task.measure = [inner = std::move(inner), this](const std::vector<double>& config) {
    TRACE_SPAN("eval.measure", "perfbench");
    const auto start = Clock::now();
    std::vector<double> row = inner(config);
    Record(SecondsSince(start));
    return row;
  };
  return task;
}

void MeasureLedger::Record(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_.Add(seconds);
}

Samples MeasureLedger::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out = std::move(seconds_);
  seconds_ = Samples();
  return out;
}

HistogramDiff::HistogramDiff(std::string name)
    : name_(std::move(name)),
      before_(unicorn::obs::MetricsRegistry::Global().Histogram(name_)->TakeSnapshot()) {}

double HistogramDiff::Percentile(double q, size_t* count) const {
  unicorn::obs::Histogram::Snapshot now =
      unicorn::obs::MetricsRegistry::Global().Histogram(name_)->TakeSnapshot();
  if (before_.counts.size() == now.counts.size()) {
    for (size_t i = 0; i < now.counts.size(); ++i) {
      now.counts[i] -= before_.counts[i];
    }
    now.count -= before_.count;
    now.sum -= before_.sum;
  }
  *count = static_cast<size_t>(now.count);
  return now.Percentile(q);
}

void InputTally::Add(size_t input, double rounds, double cpu_s, double rows,
                     double measurements) {
  Sum& sum = sums_[input];
  ++sum.runs;
  sum.rounds += rounds;
  sum.cpu_s += cpu_s;
  sum.rows += rows;
  sum.measurements += measurements;
}

OpTotals InputTally::Totals() const {
  OpTotals totals;
  for (const Sum& sum : sums_) {
    if (sum.runs > 0) {
      const double runs = static_cast<double>(sum.runs);
      totals.ops += 1.0;
      totals.rounds += sum.rounds / runs;
      totals.cpu_s += sum.cpu_s / runs;
      totals.rows += sum.rows / runs;
      totals.measurements += sum.measurements / runs;
    }
  }
  return totals;
}

void AccumulateRunner(unicorn::CampaignRunner& runner, PassResult* pass) {
  PlaneTotals& plane = pass->plane;
  const unicorn::BrokerStats& broker = runner.broker().stats();
  plane.broker_requests += broker.requests;
  plane.broker_measured += broker.measured;
  plane.broker_cache_hits += broker.cache_hits;
  plane.broker_batches += broker.batches;
  plane.broker_busy_s += broker.busy_seconds;
  plane.broker_active_s += broker.active_wall_seconds;
  const unicorn::FleetStats fleet = runner.broker().fleet_stats();
  plane.fleet_submitted += fleet.submitted;
  plane.fleet_retries += fleet.retries;
  plane.fleet_rerouted += fleet.rerouted;
  plane.fleet_failed += fleet.failed;
  for (const auto& backend : fleet.backends) {
    plane.fleet_busy_s += backend.busy_seconds;
  }
  const unicorn::ShardPoolStats pool = runner.pool().stats();
  plane.pool_refreshes += pool.refreshes;
  plane.pool_refresh_s += pool.refresh_seconds;
  plane.pool_overlap_s += pool.overlap_seconds;
  plane.pool_widest_batch = std::max(
      {plane.pool_widest_batch, pool.widest_cross_policy_batch, pool.max_concurrent_refreshes});
  for (size_t s = 0; s < runner.pool().num_shards(); ++s) {
    pass->rows_absorbed += runner.pool().shard(s).data().NumRows();
  }
}

}  // namespace perfbench
