"""Benchmark of the `improper` package, run from the repository root.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 15 --trace 0

Workloads: cli-cold, closed-form, knn, verify, or `all` for each in turn.
Every run builds its inputs from --seed, sets up SETUP_REPS fresh
interpreters (import plus one warm-up op, reported as the median
`setup_s`), times whole blocks of ops for --seconds in the last of them,
and checks every output against the references in perfbench/oracles.py.
With --trace 1 half the time is traced and the per-layer metrics are
reported instead of the end-to-end ones.

The human-readable report goes first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Exits 2 without a result when src/improper is not below the current
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "closed-form", "knn", "verify")
SETUP_REPS = 3
SLACK_S = 150.0  # a worker may run this much longer than --seconds before it is killed
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("error_rate", "ratio"), ("peak_rss_mb", "MB"))
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_worker(args, work_dir, setup_only):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", work_dir,
            "--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json.gz")]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env())
    watchdog = threading.Timer(args.seconds + SLACK_S, proc.kill)
    watchdog.start()
    proc.watchdog = watchdog
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - t0
    finish(proc)
    raise RuntimeError(f"worker exited with {proc.returncode} before READY")


def finish(proc):
    """Read the worker's RESULT line, wait for it to exit and stop its watchdog."""
    result = None
    for line in proc.stdout:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    proc.wait()
    proc.watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return result


def import_times():
    """Cumulative import seconds of improper, improper.cli and scipy, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import improper.cli"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=SLACK_S, check=True)
    out = {"import.improper_s": 0.0, "import.cli_s": 0.0, "import.scipy_s": 0.0}
    stack = []  # lines come children first, so walk them in reverse
    for line in reversed(proc.stderr.splitlines()):
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)$", line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((depth, name))
        if name == "improper":
            out["import.improper_s"] = cumulative
        elif name == "improper.cli":
            out["import.cli_s"] = cumulative
        elif name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            out["import.scipy_s"] += cumulative
    return out


def git_sha():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(".git", ref[5:])
        if not os.path.isfile(path):
            return "unknown (packed ref)"
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return ref


def run_workload(args):
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = []
    try:
        for _ in range(SETUP_REPS - 1):
            proc, seconds = start_worker(args, work_dir, setup_only=True)
            finish(proc)
            setups.append(seconds)
        proc, seconds = start_worker(args, work_dir, setup_only=False)
        setups.append(seconds)
        result = finish(proc)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["setups"] = setups
    if args.trace:
        result["imports"] = import_times()
    return result


def summarize(name, args, result):
    """Print the report for one workload; return (correct, attempted, failed, metrics)."""
    untraced = result["untraced"]
    traced = result.get("traced")
    segments = [untraced] + ([traced] if traced else [])
    failures = [f for seg in segments for f in seg["failures"]]
    if result["warmup_failure"]:
        failures.append(f"warm-up: {result['warmup_failure']}")
    if traced and traced["digest"] != untraced["digest"]:
        failures.append("traced outputs differ from untraced outputs")
    attempted = sum(seg["ops"] for seg in segments)
    e2e = {
        "setup_s": statistics.median(result["setups"]),
        "ops_per_s": untraced["ops_per_s"],
        "latency_p50_ms": untraced["latency_p50_ms"],
        "latency_tail_ms": untraced["latency_tail_ms"],
        "error_rate": len(failures) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    env = dict(result["env"])
    env.update({"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
                "clients": 1, "loop": "closed"})
    env["tracing_overhead_ops_per_s"] = (traced["ops_per_s"] - untraced["ops_per_s"]
                                         if traced else "not measured (--trace 0)")

    print(f"== workload {name}: {untraced['ops']} ops in {untraced['blocks']} blocks, "
          f"{len(failures)} failed")
    for metric, unit in END_TO_END:
        note = ""
        if metric == "setup_s":
            note = f"median of {len(result['setups'])}: " + ", ".join(
                f"{s:.3f}" for s in result["setups"])
        elif metric == "latency_tail_ms":
            note = f"p{untraced['tail_percentile']:g} of {untraced['ops']} samples"
            if untraced["tail_percentile"] == 50:
                note += " (under 40 samples: no percentile above p50 has 10 beyond it)"
            note += "; report only"
        elif metric == "error_rate":
            note = "report only; the result line carries failed/attempted"
        print(f"  {metric:<18} {e2e[metric]:<14.6g} {unit:<6} {note}")
    print("  p50 by op kind     " + ", ".join(
        f"{k} {v:.4g}" for k, v in untraced["per_kind_p50_ms"].items()) + " (ms)")
    print(f"  output digest      sha256:{untraced['digest']} (block 0)")
    print("  environment        " + json.dumps(env, sort_keys=True))
    for f in failures[:20]:
        print(f"  FAILED {f}")
    for alarm in result.get("alarms", []):
        print(f"  statistical alarm (not a failure): {alarm}")

    if traced:
        layers = dict(traced["layers"])
        layers.update(result["imports"])
        layers["trace.ops_per_s_delta"] = traced["ops_per_s"] - untraced["ops_per_s"]
        print(f"  traced segment: {traced['ops']} ops in {traced['blocks']} blocks, "
              f"{traced['ops_per_s']:.6g} ops/s traced vs {untraced['ops_per_s']:.6g} untraced; "
              f"spans in {OUT_DIR}/")
        print("  factorizations per op by kind: " + ", ".join(
            f"{k} {v:g}" for k, v in traced["factorizations_by_kind"].items()))
        for key in sorted(layers):
            print(f"  {key:<40} {layers[key]:.6g}")
        metrics = layers
    else:
        metrics = e2e
    return not failures, attempted, len(failures), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "improper", "__init__.py")):
        print("perfbench: src/improper not found; run from the repository root",
              file=sys.stderr)
        return 2

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        args.workload = name
        ok, att, fail, got = summarize(name, args, run_workload(args))
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in got.items() if k in units})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
