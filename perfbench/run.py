"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. It builds perfbench/ (the Unicorn
library from src/ plus the benchmark binary) into .bench_build/perfbench,
runs the workload, and prints the human-readable report followed by one
JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, measured with tracing
off. With --trace 1 they are the per-layer metrics of a run that measures
half its time untraced and half traced; the trace is validated with
trace_report --check and its per-span self times are added as trace.*.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import selftime  # noqa: E402

WORKLOADS = ("debug_faults", "wide_refresh", "fleet_tenants", "transfer_replay")

# Traced-run phase split: span name -> reported metric. Self time is summed
# over every thread that recorded the span.
SELF_TIME_SPANS = {
    "skeleton.level": "trace.skeleton.level.self_s",
    "fci.possible_dsep": "trace.fci.possible_dsep.self_s",
    "fci.orient": "trace.fci.orient.self_s",
    "engine.entropic": "trace.engine.entropic.self_s",
    "engine.sync_rows": "trace.engine.sync_rows.self_s",
    "campaign.propose": "trace.campaign.propose.self_s",
    "eval.measure": "trace.eval.measure.self_s",
    "fleet.service": "trace.fleet.service.self_s",
}
# Benchmark-owned frames on the driving thread: their self time is the wall
# no layer span accounts for.
UNATTRIBUTED_SPANS = ("perfbench.pass", "perfbench.campaign")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds perfbench/; returns False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    compile_ = ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        for command in (configure, compile_):
            try:
                done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                log(f"perfbench: build step failed: {error}")
                return False
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log(f"perfbench: {' '.join(command)} exited {done.returncode}")
                return False
    return True


def run(command, root, timeout):
    """Runs to completion (killing it on timeout); returns (code, stdout)."""
    with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"perfbench: {command[0]} timed out after {timeout} s")
            return 1, ""
    return proc.returncode, out


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (a checkout has no git)."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench", "tools"):
        for directory, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def trace_metrics(trace_path):
    totals = selftime.self_times(selftime.load_events(trace_path))
    metrics = {metric: totals.get(span, 0.0) for span, metric in SELF_TIME_SPANS.items()}
    metrics["trace.unattributed_s"] = sum(totals.get(span, 0.0) for span in UNATTRIBUTED_SPANS)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    work_dir = os.path.join(root, ".bench_build", "perfbench-work", args.workload)
    if not build(root, build_dir):
        return 2
    os.makedirs(work_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--workdir", work_dir]
    trace_path = os.path.join(work_dir, "trace.json")
    if args.trace:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        command += ["--trace-out", trace_path]
    code, out = run(command, root, RUN_TIMEOUT_S)
    lines = out.splitlines()
    result_lines = [line for line in lines if line.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if not result_lines:
        log(f"perfbench: no result (exit code {code})")
        return 1
    result = json.loads(result_lines[-1][len("RESULT "):])

    metrics = result["metrics"]
    if args.trace:
        check_code, check_out = run([os.path.join(build_dir, "perfbench_trace_report"),
                                     "--check", "--top", "12", trace_path], root, RUN_TIMEOUT_S)
        # The table and the verdict; the per-thread name listing is noise here.
        print("\n".join(line for line in check_out.splitlines()
                        if not line.lstrip().startswith("tid ")))
        if check_code != 0:
            log("perfbench: the trace failed trace_report --check")
            return 1
        for name, value in trace_metrics(trace_path).items():
            metrics[name] = {"value": value, "unit": "s", "better": "", "n": 1}
            print(f"  {name:<34} {value:16.6g} s")

    provenance = result["provenance"]
    provenance.update({"git_commit": git_commit(root), "source_digest": source_digest(root),
                       "trace": args.trace,
                       "samples": {name: m["n"] for name, m in metrics.items()}})
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
