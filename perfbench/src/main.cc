// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload <debug_faults|wide_refresh|fleet_tenants|transfer_replay>
//             --seed <n> --seconds <s> --workdir <dir> [--trace-out <trace.json>]
//
// Without --trace-out it sets the workload up several times, before the
// measurement and after the output check (reporting the median set-up
// time), measures for --seconds with tracing off, checks every
// result against the workload's oracle, and prints the end-to-end metrics.
// With --trace-out it measures half the time untraced and half traced,
// writes the traced half's spans, and prints the per-layer metrics plus the
// tracing overhead. Either way the last line is `RESULT <json>`;
// perfbench/run.py turns it into the benchmark's result line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "perfbench.h"

namespace perfbench {
namespace {

namespace obs = unicorn::obs;

// Set-up is repeated and its median reported. The host's speed drifts over
// seconds, so the repeats are split between the two ends of the run: before
// the measured pass and after the output check, each end at least
// kMinSetupRepeats times and more until half of kSetupCpuBudget CPU seconds
// are spent, so a set-up of a few tens of milliseconds is timed often enough.
// Set-up is deterministic in the seed: the repeats after the check rebuild
// the same inputs.
constexpr int kMinSetupRepeats = 2;
constexpr int kMaxSetupRepeats = 50;
constexpr double kSetupCpuBudget = 3.0;

// The process's resident-set high-water mark. Read from VmHWM rather than
// getrusage: ru_maxrss survives execve, so it would report the launching
// interpreter's peak whenever that was larger.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Host CPU ticks from the first line of /proc/stat: all of them, and the
// ones the hypervisor stole from this virtual machine.
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostTicks ticks;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is in user).
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(in >> value)) {
      break;
    }
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

const Metric* Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

// The benchmark's end-to-end metrics: one vocabulary for every workload, so
// each run reports all of them. An "operation" is the workload's unit of
// work — a campaign (debug_faults, transfer_replay), an engine refresh
// (wide_refresh), or a tenant round (fleet_tenants). Timings are process CPU
// seconds (see CpuSeconds): they cannot see waiting or a parallel speed-up,
// but on a shared virtual machine the wall clock spreads too much to gate
// (see perfbench/README.md). The wall-clock view is printed beside them.
std::vector<Metric> EndToEnd(const PassResult& pass, double setup_s, size_t setups,
                             double peak_rss_mb) {
  std::vector<Metric> out;
  out.push_back({"setup_s", setup_s, "s", "lower", setups});
  const OpTotals& t = pass.totals;
  out.push_back({"cpu_s_per_op", Ratio(t.cpu_s, t.ops), "s", "lower", pass.ops});
  out.push_back({"rows_per_cpu_s", Ratio(t.rows, t.cpu_s), "rows/s", "higher", pass.ops});
  out.push_back({"measurements_per_op", Ratio(t.measurements, t.ops), "count", "lower",
                 pass.ops});
  out.push_back({"peak_rss_mb", peak_rss_mb, "MB", "lower", 1});
  return out;
}

// The per-layer metrics of a traced run, in a fixed list so every workload
// reports the same names (a layer the workload does not exercise reads 0).
// Read right after the traced half, before the output check adds its own
// campaigns to the registry. The trace.*.self_s phase split is added by
// run.py from the written trace.
std::vector<Metric> PerLayer(const PassResult& traced, const HistogramDiff& queue_wait) {
  const PolicyLedger& p = traced.policy;
  const PlaneTotals& plane = traced.plane;
  std::vector<Metric> out;
  const auto lower = [&](const char* name, double value, const char* unit, size_t n) {
    out.push_back({name, value, unit, "lower", n});
  };
  const auto higher = [&](const char* name, double value, const char* unit, size_t n) {
    out.push_back({name, value, unit, "higher", n});
  };
  const auto count = [](auto value) { return static_cast<double>(value); };
  const auto layer = [&](const char* name) {
    const auto it = traced.layer.find(name);
    return it == traced.layer.end() ? 0.0 : it->second;
  };
  // Scheduler and policies.
  higher("campaign.rounds", count(p.rounds), "count", 1);
  lower("campaign.round_wait_s.p50", p.round_wait_s.Percentile(0.5), "s", p.round_wait_s.size());
  lower("campaign.round_wait_s.p99", p.round_wait_s.Percentile(0.99), "s", p.round_wait_s.size());
  lower("campaign.refresh_wait_s.p50", p.refresh_wait_s.Percentile(0.5), "s",
        p.refresh_wait_s.size());
  lower("campaign.aborted_tenants", layer("campaign.aborted_tenants"), "count", 1);
  lower("campaign.aborted_campaigns", layer("campaign.aborted_campaigns"), "count", 1);
  // Path ranking and repairs.
  lower("effects.estimator_build_s.p50", p.estimator_build_s.Percentile(0.5), "s",
        p.estimator_build_s.size());
  lower("campaign.propose_s.p50", p.propose_s.Percentile(0.5), "s", p.propose_s.size());
  lower("campaign.propose_s.p90", p.propose_s.Percentile(0.9), "s", p.propose_s.size());
  // Engine.
  const size_t refreshes = p.engine_refresh_s.size();
  lower("engine.refreshes", count(refreshes), "count", 1);
  lower("engine.refresh_s.p50", p.engine_refresh_s.Percentile(0.5), "s", refreshes);
  lower("engine.refresh_s.p90", p.engine_refresh_s.Percentile(0.9), "s", refreshes);
  lower("engine.tests_requested", count(p.tests_requested), "count", 1);
  lower("engine.tests_evaluated", count(p.tests_evaluated), "count", 1);
  lower("engine.ns_per_test", 1e9 * Ratio(p.engine_refresh_s.Sum(), count(p.tests_evaluated)),
        "ns", static_cast<size_t>(p.tests_evaluated));
  higher("engine.pairs_reused_ratio", Ratio(count(p.pairs_reused), count(p.pairs_total)), "ratio",
         refreshes);
  // Row absorption.
  lower("engine.absorb_us_per_row", 1e6 * Ratio(p.absorb_s.Sum(), count(p.rows_offered)), "us",
        p.rows_offered);
  // CI cache.
  const size_t tests = static_cast<size_t>(p.tests_requested);
  higher("ci_cache.hit_ratio", Ratio(count(p.cache_hits), count(tests)), "ratio", tests);
  higher("ci_cache.cross_shard_hit_ratio", Ratio(count(p.cross_shard_hits), count(tests)),
         "ratio", tests);
  // Shard pool.
  lower("pool.refresh_busy_s", plane.pool_refresh_s, "s", plane.pool_refreshes);
  higher("pool.overlap_ratio", Ratio(plane.pool_overlap_s, plane.pool_refresh_s), "ratio",
         plane.pool_refreshes);
  higher("pool.widest_refresh_batch", count(plane.pool_widest_batch), "count", 1);
  // Broker.
  lower("broker.requests", count(plane.broker_requests), "count", 1);
  lower("broker.measured", count(plane.broker_measured), "count", 1);
  higher("broker.dedup_ratio", Ratio(count(plane.broker_cache_hits), count(plane.broker_requests)),
         "ratio", plane.broker_requests);
  higher("broker.utilization", Ratio(plane.broker_busy_s, plane.broker_active_s), "ratio",
         plane.broker_batches);
  lower("broker.batch_s.mean", Ratio(plane.broker_active_s, count(plane.broker_batches)), "s",
        plane.broker_batches);
  // Fleet.
  size_t waits = 0;
  const double wait_p50 = queue_wait.Percentile(0.5, &waits);
  const double wait_p99 = queue_wait.Percentile(0.99, &waits);
  const double submitted = count(plane.fleet_submitted);
  lower("fleet.submitted", submitted, "count", 1);
  lower("fleet.retries", count(plane.fleet_retries), "count", 1);
  lower("fleet.rerouted", count(plane.fleet_rerouted), "count", 1);
  lower("fleet.failed", count(plane.fleet_failed), "count", 1);
  lower("fleet.retry_ratio", Ratio(count(plane.fleet_retries), submitted), "ratio",
        plane.fleet_submitted);
  lower("fleet.failed_ratio", Ratio(count(plane.fleet_failed), submitted), "ratio",
        plane.fleet_submitted);
  lower("fleet.queue_wait_s.p50", wait_p50, "s", waits);
  lower("fleet.queue_wait_s.p99", wait_p99, "s", waits);
  lower("fleet.busy_s", plane.fleet_busy_s, "s", plane.fleet_submitted);
  // On-disk tables.
  lower("table.load_csv_s", layer("table.load_csv_s"), "s", 1);
  lower("table.load_bin_s", layer("table.load_bin_s"), "s", 1);
  higher("table.rows", layer("table.rows"), "count", 1);
  lower("recorded.replay_s", layer("recorded.replay_s"), "s", p.first_round_s.size());
  // Simulated device.
  lower("eval.measure_calls", count(traced.measure_s.size()), "count", 1);
  lower("eval.measure_us.p50", 1e6 * traced.measure_s.Percentile(0.5), "us",
        traced.measure_s.size());
  return out;
}

// Result quality, from the untraced half and the output check: fixed by the
// seed, so a performance change must not move it.
std::vector<Metric> Quality(const std::vector<Metric>& workload_view) {
  const std::pair<const char*, const char*> kQuality[] = {
      {"fixed_ratio", "ratio"}, {"gain_pct", "%"}, {"accuracy_pct", "%"}, {"edge_f1", "ratio"}};
  std::vector<Metric> out;
  for (const auto& [name, unit] : kQuality) {
    const Metric* m = Find(workload_view, name);
    out.push_back({std::string("quality.") + name, m != nullptr ? m->value : 0.0, unit, "higher",
                   m != nullptr ? m->n : 0});
  }
  return out;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %-7s %-7s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.better.empty() ? "-" : m.better.c_str(), m.n);
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i > 0 ? ", " : "") << JsonString(m.name) << ": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": " << JsonString(m.unit) << ", \"better\": " << JsonString(m.better)
        << ", \"n\": " << m.n << "}";
  }
  out << "}";
  return out.str();
}

std::string ProvenanceJson(const std::string& workload, uint64_t seed, double seconds) {
  std::ostringstream out;
  out << "{\"cpu_model\": " << JsonString(CpuModel())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      // The benchmark always builds with observability and SIMD on.
      << ", \"unicorn_no_obs\": false, \"unicorn_no_simd\": false"
      << ", \"workload\": " << JsonString(workload) << ", \"seed\": " << seed
      << ", \"seconds\": " << JsonNumber(seconds) << "}";
  return out.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <debug_faults|wide_refresh|fleet_tenants|"
               "transfer_replay> --seed <n> --seconds <s> --workdir <dir> "
               "[--trace-out <trace.json>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string workdir;
  std::string trace_path;
  uint64_t seed = 0;
  double seconds = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--trace-out") {
      trace_path = value;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload;
  if (workload_name == "debug_faults") {
    workload = MakeDebugFaults();
  } else if (workload_name == "wide_refresh") {
    workload = MakeWideRefresh();
  } else if (workload_name == "fleet_tenants") {
    workload = MakeFleetTenants();
  } else if (workload_name == "transfer_replay") {
    workload = MakeTransferReplay();
  }
  if (workload == nullptr || seconds <= 0.0 || workdir.empty()) {
    return Usage();
  }
  const bool traced = !trace_path.empty();

  Samples setup_cpu;
  Samples setup_wall;
  const auto set_up = [&] {
    const double budget = setup_cpu.Sum() + kSetupCpuBudget / 2.0;
    for (int r = 0; r < kMinSetupRepeats || (r < kMaxSetupRepeats && setup_cpu.Sum() < budget);
         ++r) {
      const auto start = Clock::now();
      const double cpu = CpuSeconds();
      workload->Setup(seed, workdir);
      setup_cpu.Add(CpuSeconds() - cpu);
      setup_wall.Add(SecondsSince(start));
    }
  };
  set_up();

  const HostTicks ticks_before = ReadHostTicks();
  PassResult untraced = workload->RunPass(traced ? seconds / 2.0 : seconds, false, nullptr);
  const HostTicks ticks_after = ReadHostTicks();
  const double peak_rss_mb = PeakRssMb();  // before the oracle adds its own
  std::vector<Metric> per_layer;
  if (traced) {
    // The traced half replays the untraced half's first campaigns, so the
    // tracing overhead compares the same work.
    const double budget = std::min(seconds / 2.0, workload->max_traced_seconds());
    std::vector<PlannedCampaign> replay;
    double untraced_s = 0.0;
    double untraced_cpu_s = 0.0;
    for (const PlannedCampaign& campaign : untraced.plan) {
      if (!replay.empty() && untraced_s >= budget) {
        break;
      }
      replay.push_back(campaign);
      untraced_s += campaign.wall_s;
      untraced_cpu_s += campaign.cpu_s;
    }
    const HistogramDiff queue_wait("fleet.queue_wait_seconds");
    obs::trace::Clear();
    obs::trace::SetEnabled(true);
    PassResult traced_pass;
    {
      obs::trace::Span root("perfbench.pass", "perfbench");
      traced_pass = workload->RunPass(0.0, true, &replay);
    }
    obs::trace::SetEnabled(false);
    per_layer = PerLayer(traced_pass, queue_wait);
    // Tracing costs CPU; compare CPU seconds of the same campaigns.
    per_layer.push_back({"trace.overhead_ratio",
                         untraced_cpu_s > 0.0 ? traced_pass.cpu_s / untraced_cpu_s - 1.0 : 0.0,
                         "ratio", "lower", replay.size()});
  }
  const CheckResult check = workload->Check();
  set_up();
  const bool correct = check.checked > 0 && check.mismatched == 0;

  std::printf("workload %s (seed %llu, %.0f s, one %s = one operation)\n", workload->name(),
              static_cast<unsigned long long>(seed), seconds, workload->op_name());
  std::printf("output check: %zu results compared with the oracle, %zu mismatched -> %s\n",
              check.checked, check.mismatched, correct ? "ok" : "FAILED");
  std::vector<Metric> workload_view = {
      {"setup_wall_s", setup_wall.Percentile(0.5), "s", "lower", setup_wall.size()},
      {"op_s_p50", untraced.op_s.Percentile(0.5), "s", "lower", untraced.op_s.size()},
      {"rows_per_s", Ratio(untraced.rows_absorbed, untraced.wall_s), "rows/s", "higher",
       untraced.ops},
      {"cpu_utilization", Ratio(untraced.cpu_s, untraced.wall_s), "cores", "", untraced.ops},
      // Share of the host's CPU time the hypervisor stole during the pass:
      // the wall-clock numbers are comparable only when it is near zero.
      {"host_steal_ratio", Ratio(ticks_after.steal - ticks_before.steal,
                                 ticks_after.total - ticks_before.total),
       "ratio", "", 1}};
  workload_view.insert(workload_view.end(), untraced.workload.begin(), untraced.workload.end());
  workload_view.insert(workload_view.end(), check.extra.begin(), check.extra.end());
  const std::vector<Metric> end_to_end =
      EndToEnd(untraced, setup_cpu.Percentile(0.5), setup_cpu.size(), peak_rss_mb);
  PrintMetrics("end-to-end, CPU seconds (tracing off):", end_to_end);
  PrintMetrics("workload view, wall clock unless named cpu (tracing off):", workload_view);

  std::vector<Metric> reported = end_to_end;
  if (traced) {
    for (const Metric& m : Quality(workload_view)) {
      per_layer.push_back(m);
    }
    PrintMetrics("per layer (traced half):", per_layer);
    if (!obs::trace::WriteFile(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    if (obs::trace::DroppedEvents() > 0) {
      std::fprintf(stderr, "perfbench: the tracer dropped %llu events\n",
                   static_cast<unsigned long long>(obs::trace::DroppedEvents()));
      return 1;
    }
    reported = per_layer;
  }
  std::printf("RESULT {\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s, "
              "\"provenance\": %s}\n",
              correct ? "true" : "false", untraced.ops, check.mismatched,
              MetricsJson(reported).c_str(),
              ProvenanceJson(workload->name(), seed, seconds).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
