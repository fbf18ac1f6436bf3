#include "unicorn/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace unicorn {

namespace {

using SchedClock = std::chrono::steady_clock;

// Process-wide scheduler instruments. campaign.round_seconds is the SLO
// histogram the multi-tenant service will report p50/p99 from: one sample
// per policy round, covering refresh wait + propose + measurement + absorb.
struct CampaignMetrics {
  obs::Counter* rounds;
  obs::Histogram* round_seconds;
};

const CampaignMetrics& Metrics() {
  static const CampaignMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return CampaignMetrics{registry.Counter("campaign.rounds"),
                           registry.Histogram("campaign.round_seconds")};
  }();
  return metrics;
}

}  // namespace

bool GoalsMet(const std::vector<double>& row, const std::vector<ObjectiveGoal>& goals) {
  for (const auto& goal : goals) {
    if (row[goal.var] > goal.threshold) {
      return false;
    }
  }
  return true;
}

double GoalViolation(const std::vector<double>& row, const std::vector<ObjectiveGoal>& goals) {
  double worst = -1e18;
  for (const auto& goal : goals) {
    const double denom = std::max(1e-9, std::fabs(goal.threshold));
    worst = std::max(worst, (row[goal.var] - goal.threshold) / denom);
  }
  return worst;
}

TransferPolicy::TransferPolicy(TransferOptions options, MeasurementTable source,
                               CampaignPolicy* inner)
    : options_(std::move(options)), source_(std::move(source)), inner_(inner) {
  if (options_.max_source_rows > 0 && source_.entries.size() > options_.max_source_rows) {
    source_.entries.resize(options_.max_source_rows);
  }
  // Nothing to replay: degrade to pure delegation from round 0 on.
  replayed_ = source_.entries.empty();
}

bool TransferPolicy::WantsRefresh(const CampaignContext& ctx) {
  return inner_->WantsRefresh(ctx);
}

std::vector<std::vector<double>> TransferPolicy::Propose(CampaignContext& ctx) {
  std::vector<std::vector<double>> batch;
  if (!replayed_) {
    // Round 0: the source recording's configurations, then the inner
    // policy's own bootstrap — ONE combined batch, so the inner policy sees
    // the same round numbering (and thus the same refresh-seed stream) as a
    // legacy warm-table run.
    batch.reserve(source_.entries.size());
    for (const auto& entry : source_.entries) {
      batch.push_back(entry.config);
    }
    replay_count_ = batch.size();
  } else {
    replay_count_ = 0;
  }
  std::vector<std::vector<double>> inner_batch = inner_->Propose(ctx);
  inner_proposed_ = inner_batch.size();
  batch.insert(batch.end(), std::make_move_iterator(inner_batch.begin()),
               std::make_move_iterator(inner_batch.end()));
  return batch;
}

std::vector<std::string> TransferPolicy::ProposalEnvironments(size_t proposal_size) {
  std::vector<std::string> envs(replay_count_, options_.source_environment);
  std::vector<std::string> inner_envs = inner_->ProposalEnvironments(inner_proposed_);
  if (inner_envs.empty()) {
    // Backstop: an untagged fresh request could otherwise be routed to the
    // source recording if its configuration happens to be recorded.
    envs.resize(proposal_size, options_.target_environment);
  } else {
    envs.insert(envs.end(), std::make_move_iterator(inner_envs.begin()),
                std::make_move_iterator(inner_envs.end()));
  }
  return envs;
}

void TransferPolicy::Absorb(const std::vector<std::vector<double>>& configs,
                            const std::vector<std::vector<double>>& rows,
                            CampaignContext& ctx) {
  if (replayed_) {
    inner_->Absorb(configs, rows, ctx);  // every round after the replay
    return;
  }
  // The replayed slice: straight into the shared engine, tagged as
  // source-provenance rows (the warm model's training set).
  size_t offset = 0;
  for (; offset < replay_count_; ++offset) {
    ctx.engine.AddRow(rows[offset], RowProvenance::kSource);
    ++stats_.source_rows;
  }
  replayed_ = true;
  if (inner_proposed_ == 0) {
    return;  // the runner never hands empty slices to a policy
  }
  const std::vector<std::vector<double>> inner_configs(configs.begin() + offset, configs.end());
  const std::vector<std::vector<double>> inner_rows(rows.begin() + offset, rows.end());
  inner_->Absorb(inner_configs, inner_rows, ctx);
}

bool TransferPolicy::Finished() const { return replayed_ && inner_->Finished(); }

void TransferPolicy::Finalize(CampaignContext& ctx) {
  inner_->Finalize(ctx);
  stats_.target_rows = ctx.engine.ProvenanceRows(RowProvenance::kTarget);
}

ShardPoolOptions CampaignRunner::MakePoolOptions(const CampaignOptions& options) {
  ShardPoolOptions pool;
  pool.model = options.model;
  pool.engine = options.engine;
  pool.refresh_threads = options.refresh_threads;
  return pool;
}

CampaignRunner::CampaignRunner(PerformanceTask task, CampaignOptions options)
    : options_(std::move(options)),
      broker_(std::move(task), options_.broker),
      pool_(broker_.task().variables, MakePoolOptions(options_)) {
  pool_.ShardForGroup("");  // the default group's shard is always shard 0
}

CampaignRunner::CampaignRunner(PerformanceTask task, CampaignOptions options,
                               std::unique_ptr<BackendFleet> fleet)
    : options_(std::move(options)),
      broker_(std::move(task), std::move(fleet), options_.broker),
      pool_(broker_.task().variables, MakePoolOptions(options_)) {
  pool_.ShardForGroup("");
}

std::vector<std::vector<double>> CampaignRunner::SampleConfigs(size_t count, Rng* rng) const {
  std::vector<std::vector<double>> configs;
  configs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    configs.push_back(broker_.task().sample_config(rng));
  }
  return configs;
}

std::vector<std::vector<double>> CampaignRunner::MeasureUniform(size_t count, Rng* rng) {
  return broker_.MeasureBatch(SampleConfigs(count, rng));
}

void CampaignRunner::Run(const std::vector<CampaignPolicy*>& policies) {
  std::vector<GroupedPolicy> grouped;
  grouped.reserve(policies.size());
  for (CampaignPolicy* policy : policies) {
    grouped.push_back(GroupedPolicy{policy, ""});
  }
  RunGrouped(grouped);
}

void CampaignRunner::RunGrouped(const std::vector<GroupedPolicy>& policies) {
  std::vector<size_t> shard_of(policies.size());
  for (size_t p = 0; p < policies.size(); ++p) {
    shard_of[p] = pool_.ShardForGroup(policies[p].group);
  }

  std::vector<size_t> active;  // indices into `policies`
  for (size_t p = 0; p < policies.size(); ++p) {
    if (policies[p].policy->Finished()) {
      CampaignContext ctx = ContextFor(shard_of[p], 0);
      policies[p].policy->Finalize(ctx);
    } else {
      active.push_back(p);
    }
  }

  for (size_t round = 0; !active.empty(); ++round) {
    obs::trace::Span round_span("campaign.round", "campaign");
    round_span.SetArg("round", static_cast<double>(round));
    round_span.SetArg("policies", static_cast<double>(active.size()));
    const auto round_start = SchedClock::now();
    // A shard is dirty when any of its active policies asks for a refresh;
    // dirty shards refresh in parallel, all with this round's seed (the
    // same seed + iteration stream the sequential debugger — refresh every
    // iteration — and optimizer — every relearn_every-th — used).
    std::vector<size_t> dirty;
    for (const size_t p : active) {
      CampaignContext ctx = ContextFor(shard_of[p], round);
      if (policies[p].policy->WantsRefresh(ctx)) {
        dirty.push_back(shard_of[p]);
      }
    }
    pool_.RefreshShards(std::move(dirty), RefreshSeed(round));

    // Collect every policy's proposal (and its environment routing tags)
    // and measure them as one batch: one fan-out over the pool/fleet, and a
    // (environment, config) request two policies propose in the same round
    // is measured once — even across objective groups.
    std::vector<std::vector<std::vector<double>>> proposals;
    std::vector<std::vector<double>> combined;
    std::vector<std::string> combined_envs;
    bool any_env = false;
    proposals.reserve(active.size());
    obs::trace::Begin("campaign.propose", "campaign");
    for (const size_t p : active) {
      CampaignContext ctx = ContextFor(shard_of[p], round);
      proposals.push_back(policies[p].policy->Propose(ctx));
      combined.insert(combined.end(), proposals.back().begin(), proposals.back().end());
      std::vector<std::string> envs =
          policies[p].policy->ProposalEnvironments(proposals.back().size());
      if (!envs.empty() && envs.size() != proposals.back().size()) {
        throw std::logic_error("campaign: ProposalEnvironments must parallel the proposal");
      }
      if (envs.empty()) {
        combined_envs.resize(combined_envs.size() + proposals.back().size());
      } else {
        any_env = true;
        combined_envs.insert(combined_envs.end(), std::make_move_iterator(envs.begin()),
                             std::make_move_iterator(envs.end()));
      }
    }
    obs::trace::End("proposals", static_cast<double>(combined.size()));
    const auto rows =
        broker_.MeasureBatch(combined, any_env ? combined_envs : std::vector<std::string>{});

    {
      TRACE_SPAN("campaign.absorb", "campaign");
      size_t offset = 0;
      for (size_t a = 0; a < active.size(); ++a) {
        if (proposals[a].empty()) {
          continue;
        }
        const std::vector<std::vector<double>> slice(
            rows.begin() + static_cast<long>(offset),
            rows.begin() + static_cast<long>(offset + proposals[a].size()));
        CampaignContext ctx = ContextFor(shard_of[active[a]], round);
        policies[active[a]].policy->Absorb(proposals[a], slice, ctx);
        offset += proposals[a].size();
      }
    }
    // Every active policy completed one round this wall interval: one SLO
    // sample each, same definition as the asynchronous schedulers'.
    const double round_seconds =
        std::chrono::duration<double>(SchedClock::now() - round_start).count();
    for (size_t a = 0; a < active.size(); ++a) {
      Metrics().rounds->Increment();
      Metrics().round_seconds->Record(round_seconds);
    }

    // Retire finished policies — and any policy that proposed nothing while
    // claiming to continue, which could otherwise spin forever.
    std::vector<size_t> still_active;
    for (size_t a = 0; a < active.size(); ++a) {
      const size_t p = active[a];
      if (policies[p].policy->Finished() || proposals[a].empty() ||
          round + 1 >= options_.max_rounds) {
        CampaignContext ctx = ContextFor(shard_of[p], round);
        policies[p].policy->Finalize(ctx);
      } else {
        still_active.push_back(p);
      }
    }
    active = std::move(still_active);
  }
}

void CampaignRunner::RunAsync(const std::vector<CampaignPolicy*>& policies) {
  std::vector<GroupedPolicy> grouped;
  grouped.reserve(policies.size());
  for (CampaignPolicy* policy : policies) {
    grouped.push_back(GroupedPolicy{policy, ""});
  }
  RunAsyncGrouped(grouped);
}

void CampaignRunner::RunAsyncGrouped(const std::vector<GroupedPolicy>& policies) {
  if (options_.pipeline) {
    RunAsyncGroupedPipelined(policies);
  } else {
    RunAsyncGroupedBarrier(policies);
  }
}

// The pre-pipeline drain loop: refreshes run inline on the campaign thread,
// so a completed policy that needs (or follows) a long refresh blocks every
// other policy's absorb-and-resubmit — head-of-line blocking that starves
// the fleet. Kept as the measurable baseline for bench/table_pipeline.cc
// and selectable via CampaignOptions::pipeline = false.
void CampaignRunner::RunAsyncGroupedBarrier(const std::vector<GroupedPolicy>& policies) {
  // Per-policy pipeline state: each policy is always either retired or
  // waiting on exactly one outstanding broker batch.
  struct PolicyState {
    CampaignPolicy* policy = nullptr;
    size_t shard = 0;
    size_t round = 0;
    std::vector<std::vector<double>> proposal;
    std::vector<std::vector<double>> rows;
    size_t received = 0;
    SchedClock::time_point round_start{};
  };
  std::vector<PolicyState> states;
  std::unordered_map<uint64_t, size_t> batch_owner;  // broker batch id -> state
  size_t active = 0;

  // Refresh (the policy's own shard, per-policy round, same seed stream as
  // Run), propose, submit. Returns false when the policy retired instead of
  // launching a round.
  const auto launch_round = [&](size_t state_index) {
    PolicyState& state = states[state_index];
    state.round_start = SchedClock::now();
    CampaignContext ctx = ContextFor(state.shard, state.round);
    if (state.policy->WantsRefresh(ctx)) {
      // Single-shard batch: the empty-table guard and the refresh ledger
      // live in the pool.
      pool_.RefreshShards({state.shard}, RefreshSeed(state.round));
    }
    state.proposal = state.policy->Propose(ctx);
    if (state.proposal.empty()) {
      // A policy proposing nothing can never finish itself (same guard as
      // the synchronous loop).
      state.policy->Finalize(ctx);
      return false;
    }
    std::vector<std::string> envs = state.policy->ProposalEnvironments(state.proposal.size());
    if (!envs.empty() && envs.size() != state.proposal.size()) {
      throw std::logic_error("campaign: ProposalEnvironments must parallel the proposal");
    }
    state.rows.assign(state.proposal.size(), {});
    state.received = 0;
    const BatchTicket ticket = broker_.SubmitBatch(state.proposal, envs);
    batch_owner.emplace(ticket.id, state_index);
    return true;
  };

  states.reserve(policies.size());
  for (const GroupedPolicy& entry : policies) {
    const size_t shard = pool_.ShardForGroup(entry.group);
    if (entry.policy->Finished()) {
      CampaignContext ctx = ContextFor(shard, 0);
      entry.policy->Finalize(ctx);
      continue;
    }
    states.push_back(PolicyState{entry.policy, shard, 0, {}, {}, 0});
    if (launch_round(states.size() - 1)) {
      ++active;
    }
  }

  // Drain the completion stream: whichever policy's batch fills first
  // absorbs first and immediately pipelines its next round — no barrier on
  // the other policies' in-flight measurements. Completions of batches
  // someone else submitted through the shared broker are set aside and
  // requeued for their own consumer once the campaign is done.
  std::vector<BrokerCompletion> foreign;
  const auto requeue_foreign = [&] {
    for (auto it = foreign.rbegin(); it != foreign.rend(); ++it) {
      broker_.Requeue(std::move(*it));
    }
    foreign.clear();
  };
  while (active > 0) {
    BrokerCompletion done;
    if (!broker_.WaitCompletion(&done)) {
      requeue_foreign();
      throw std::runtime_error("async campaign: completion stream ended with active policies");
    }
    const auto owner = batch_owner.find(done.batch);
    if (owner == batch_owner.end()) {
      foreign.push_back(std::move(done));
      continue;
    }
    if (!done.ok) {
      requeue_foreign();
      throw std::runtime_error("async campaign: measurement failed permanently: " + done.error);
    }
    PolicyState& state = states[owner->second];
    state.rows[done.index] = std::move(done.row);
    if (++state.received < state.proposal.size()) {
      continue;
    }
    const size_t state_index = owner->second;
    batch_owner.erase(owner);

    CampaignContext ctx = ContextFor(state.shard, state.round);
    {
      TRACE_SPAN_NAMED(absorb_span, "campaign.absorb", "campaign");
      absorb_span.SetArg("round", static_cast<double>(state.round));
      state.policy->Absorb(state.proposal, state.rows, ctx);
    }
    Metrics().rounds->Increment();
    Metrics().round_seconds->Record(
        std::chrono::duration<double>(SchedClock::now() - state.round_start).count());
    if (state.policy->Finished() || state.round + 1 >= options_.max_rounds) {
      state.policy->Finalize(ctx);
      --active;
      continue;
    }
    ++state.round;
    if (!launch_round(state_index)) {
      --active;
    }
  }
  requeue_foreign();
}

// The pipelined campaign scheduler (ROADMAP "pipelined campaign rounds"):
// a ready-set event loop over two completion streams — measurement rows from
// the broker/fleet and shard-refresh done events from the pool's
// asynchronous refresh workers. A policy whose next round wants a refresh
// hands its shard to the workers and the loop keeps absorbing and
// resubmitting every other policy meanwhile, so dirty shards of *different*
// policies refresh as one parallel batch while their own and other policies'
// measurements keep the fleet busy — refresh compute hidden behind device
// service time (the overlap the pool's ledger reports).
//
// Per-policy semantics are exactly the synchronous loop's: refresh decided
// at round start (WantsRefresh before Propose), seeded RefreshSeed(round)
// fixed at enqueue, rows absorbed as one batch in proposal order. Policies
// in distinct objective groups are therefore bit-identical to RunGrouped;
// same-group interleaving remains completion-order-dependent, as documented
// on RunAsyncGrouped.
void CampaignRunner::RunAsyncGroupedPipelined(const std::vector<GroupedPolicy>& policies) {
  // Alternation quantum while both streams are live: the timed row-wait
  // returns early on every completion, so this bounds only refresh-done
  // latency. 2ms keeps refresh-chain resubmission prompt (a chained shard
  // sits idle until the done event is seen) while staying far below a
  // device service time, so fleet feeding is never the bottleneck.
  constexpr double kPollSeconds = 0.002;

  struct PolicyState {
    CampaignPolicy* policy = nullptr;
    size_t shard = 0;
    size_t round = 0;
    std::vector<std::vector<double>> proposal;
    std::vector<std::vector<double>> rows;
    size_t received = 0;
    SchedClock::time_point round_start{};
  };
  enum class ShardAction : uint8_t { kAbsorb, kPropose };

  std::vector<PolicyState> states;
  std::unordered_map<uint64_t, size_t> batch_owner;  // broker batch id -> state
  size_t active = 0;
  // Per-shard scheduling state. A shard with an asynchronous refresh in
  // flight must not be touched (pool contract), so a same-group policy whose
  // batch fills — or whose own refresh finished while a groupmate's is still
  // queued — parks its next step here; the queue drains FIFO the moment the
  // shard goes quiet. Policies in distinct groups never park.
  std::vector<size_t> shard_refreshing;
  std::vector<std::deque<std::pair<ShardAction, size_t>>> shard_queue;
  // Measurement rows currently on the fleet (submitted, row not yet back):
  // the gauge the pool's overlap ledger samples.
  std::atomic<size_t> in_flight_rows{0};

  std::vector<BrokerCompletion> foreign;
  const auto requeue_foreign = [&] {
    for (auto it = foreign.rbegin(); it != foreign.rend(); ++it) {
      broker_.Requeue(std::move(*it));
    }
    foreign.clear();
  };

  // Propose and submit the policy's current round (its shard is quiet and
  // refreshed, or needed no refresh). Returns false when the policy retired
  // on an empty proposal instead.
  const auto propose_and_submit = [&](size_t state_index) -> bool {
    PolicyState& state = states[state_index];
    TRACE_SPAN_NAMED(propose_span, "campaign.propose", "campaign");
    propose_span.SetArg("round", static_cast<double>(state.round));
    CampaignContext ctx = ContextFor(state.shard, state.round);
    state.proposal = state.policy->Propose(ctx);
    if (state.proposal.empty()) {
      state.policy->Finalize(ctx);
      return false;
    }
    std::vector<std::string> envs = state.policy->ProposalEnvironments(state.proposal.size());
    if (!envs.empty() && envs.size() != state.proposal.size()) {
      throw std::logic_error("campaign: ProposalEnvironments must parallel the proposal");
    }
    state.rows.assign(state.proposal.size(), {});
    state.received = 0;
    const size_t now_in_flight =
        in_flight_rows.fetch_add(state.proposal.size(), std::memory_order_relaxed) +
        state.proposal.size();
    obs::trace::CounterValue("campaign.in_flight_rows", static_cast<double>(now_in_flight));
    const BatchTicket ticket = broker_.SubmitBatch(state.proposal, envs);
    batch_owner.emplace(ticket.id, state_index);
    return true;
  };

  // Start the policy's round: same trigger point and seed stream as the
  // synchronous loop, but the refresh itself runs on the pool's workers —
  // the Propose happens when its done event comes back. Returns false when
  // the policy retired.
  const auto launch_round = [&](size_t state_index) -> bool {
    PolicyState& state = states[state_index];
    state.round_start = SchedClock::now();
    CampaignContext ctx = ContextFor(state.shard, state.round);
    if (state.policy->WantsRefresh(ctx)) {
      ++shard_refreshing[state.shard];
      pool_.StartRefreshAsync(state.shard, RefreshSeed(state.round),
                              static_cast<uint64_t>(state_index));
      return true;  // still active: awaiting the refresh
    }
    return propose_and_submit(state_index);
  };

  const auto absorb_and_advance = [&](size_t state_index) {
    PolicyState& state = states[state_index];
    CampaignContext ctx = ContextFor(state.shard, state.round);
    {
      TRACE_SPAN_NAMED(absorb_span, "campaign.absorb", "campaign");
      absorb_span.SetArg("round", static_cast<double>(state.round));
      state.policy->Absorb(state.proposal, state.rows, ctx);
    }
    Metrics().rounds->Increment();
    Metrics().round_seconds->Record(
        std::chrono::duration<double>(SchedClock::now() - state.round_start).count());
    if (state.policy->Finished() || state.round + 1 >= options_.max_rounds) {
      state.policy->Finalize(ctx);
      --active;
      return;
    }
    ++state.round;
    if (!launch_round(state_index)) {
      --active;
    }
  };

  // Drain the shard's parked actions while it stays quiet. An absorb may
  // relaunch a round that starts a new refresh on this very shard — the loop
  // stops and the remainder waits for that refresh's done event.
  const auto process_shard = [&](size_t shard) {
    auto& queue = shard_queue[shard];
    while (!queue.empty() && shard_refreshing[shard] == 0) {
      const auto [action, state_index] = queue.front();
      queue.pop_front();
      if (action == ShardAction::kAbsorb) {
        absorb_and_advance(state_index);
      } else if (!propose_and_submit(state_index)) {
        --active;
      }
    }
  };

  const auto handle_refresh_done = [&](ShardRefreshDone& done) {
    --shard_refreshing[done.shard];
    if (done.error != nullptr) {
      std::rethrow_exception(done.error);
    }
    shard_queue[done.shard].push_back(
        {ShardAction::kPropose, static_cast<size_t>(done.token)});
    process_shard(done.shard);
  };

  // Resolve every group's shard up front: shard storage must not grow once
  // refresh workers hold engine references.
  std::vector<size_t> shard_of(policies.size());
  for (size_t p = 0; p < policies.size(); ++p) {
    shard_of[p] = pool_.ShardForGroup(policies[p].group);
  }
  shard_refreshing.assign(pool_.num_shards(), 0);
  shard_queue.assign(pool_.num_shards(), {});

  pool_.SetInFlightGauge(&in_flight_rows);
  try {
    states.reserve(policies.size());
    for (size_t p = 0; p < policies.size(); ++p) {
      if (policies[p].policy->Finished()) {
        CampaignContext ctx = ContextFor(shard_of[p], 0);
        policies[p].policy->Finalize(ctx);
        continue;
      }
      states.push_back(PolicyState{policies[p].policy, shard_of[p], 0, {}, {}, 0});
    }
    for (size_t i = 0; i < states.size(); ++i) {
      if (launch_round(i)) {
        ++active;
      }
    }

    while (active > 0) {
      // Refresh-done events first: they are cheap to handle and each one
      // unparks a Propose whose batch then feeds the fleet.
      ShardRefreshDone rdone;
      bool handled = false;
      while (pool_.TryPopRefreshDone(&rdone)) {
        handle_refresh_done(rdone);
        handled = true;
      }
      if (handled || active == 0) {
        continue;  // scheduling state changed: re-evaluate what to wait on
      }
      const bool measurements_pending = !batch_owner.empty();
      const bool refreshes_pending = pool_.PendingAsyncRefreshes() > 0;
      BrokerCompletion done;
      if (measurements_pending && refreshes_pending) {
        // Both streams live: timed wait on the row stream, then loop back
        // to poll the refresh stream.
        if (!broker_.WaitCompletionFor(&done, kPollSeconds)) {
          continue;
        }
      } else if (measurements_pending) {
        if (!broker_.WaitCompletion(&done)) {
          throw std::runtime_error(
              "async campaign: completion stream ended with active policies");
        }
      } else if (refreshes_pending) {
        if (pool_.WaitRefreshDone(&rdone)) {
          handle_refresh_done(rdone);
        }
        continue;
      } else {
        throw std::logic_error("async campaign: active policies with nothing outstanding");
      }

      const auto owner = batch_owner.find(done.batch);
      if (owner == batch_owner.end()) {
        foreign.push_back(std::move(done));
        continue;
      }
      if (!done.ok) {
        throw std::runtime_error("async campaign: measurement failed permanently: " +
                                 done.error);
      }
      PolicyState& state = states[owner->second];
      state.rows[done.index] = std::move(done.row);
      const size_t now_in_flight =
          in_flight_rows.fetch_sub(1, std::memory_order_relaxed) - 1;
      obs::trace::CounterValue("campaign.in_flight_rows",
                               static_cast<double>(now_in_flight));
      if (++state.received < state.proposal.size()) {
        continue;
      }
      const size_t state_index = owner->second;
      batch_owner.erase(owner);
      shard_queue[state.shard].push_back({ShardAction::kAbsorb, state_index});
      process_shard(state.shard);
    }
  } catch (...) {
    // Workers may still hold engine and gauge references: quiesce the pool
    // before unwinding releases them, then hand foreign completions back.
    pool_.DrainAsyncRefreshes();
    pool_.SetInFlightGauge(nullptr);
    requeue_foreign();
    throw;
  }
  pool_.DrainAsyncRefreshes();  // no-op: no policy retires with a refresh in flight
  pool_.SetInFlightGauge(nullptr);
  requeue_foreign();
}

}  // namespace unicorn
