"""One benchmark process: import, warm up, then run the timed loop.

Started by run.py in a fresh interpreter. It imports `improper`, runs one
warm-up op and prints READY, which ends the set-up interval run.py
measures. With --setup-only it stops there. Otherwise it runs one more
untimed op of every kind, so that no first-use cost lands in the timed
loop, then whole blocks of ops for about --seconds (half the time untraced
and half traced with --trace 1) and prints one RESULT line of JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import struct
import sys
import time

import improper  # noqa: F401  (the import is part of set-up)
import numpy as np

import tracer as tr
from workloads import HERE, WORKLOADS

LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def feed(h, obj):
    """Hash the exact bits of every float and array in an op's output."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(struct.pack("<d", float(obj)))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, str):
        h.update(obj.encode())
    elif isinstance(obj, BaseException):
        h.update(f"{type(obj).__name__}: {obj}".encode())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            if key not in ("out_dir", "stderr"):
                h.update(key.encode())
                feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it (p50 if none)."""
    return next((p for p in LADDER if n * (1 - p / 100) >= 10), 50.0)


def run_op(op, op_id, tracer=None):
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.call()
        else:
            with tracer.op(op_id):
                out = op.call()
        err = None
    except Exception as exc:  # an unexpected exception is a failed op
        out, err = None, f"raised {exc!r}"
    elapsed = time.perf_counter() - t0
    if err is None:
        try:
            err = op.check(out)
        except Exception as exc:  # a malformed output can break its check
            err = f"check raised {exc!r}"
    return out, elapsed, err


def segment(wl, budget, tracer=None, hooks=None):
    """Run whole blocks for about `budget` seconds; block 0 is digested.

    Whole blocks keep the op mix the same in every run. Another block starts
    only while the elapsed time plus half a block is under the budget, so
    the run ends at the block boundary closest to it.
    """
    lat, failures, kinds = [], [], []
    block0_ops = None
    digest = hashlib.sha256()
    start = time.perf_counter()
    b = 0
    while True:
        for op in wl.block(b):
            op_id = len(lat)
            out, elapsed, err = run_op(op, op_id, tracer)
            lat.append(elapsed)
            kinds.append(op.kind)
            if err:
                failures.append(f"{op.kind}: {err}")
            if b == 0:
                digest.update(op.kind.encode())
                feed(digest, out)
            if hooks:
                hooks(out, b)
            if hasattr(wl, "finish"):
                wl.finish(out)
        b += 1
        block0_ops = block0_ops or len(lat)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / b >= budget:
            break
    lat_ms = np.array(lat) * 1e3
    pct = tail_percentile(len(lat))
    return {
        "ops": len(lat), "blocks": b, "block0_ops": block0_ops, "failures": failures,
        "ops_per_s": len(lat) / float(np.sum(lat)),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_tail_ms": float(np.percentile(lat_ms, pct)),
        "tail_percentile": pct,
        "digest": digest.hexdigest(),
        "kinds": kinds,
        "per_kind_p50_ms": {k: float(np.median(lat_ms[[i for i, kk in enumerate(kinds) if kk == k]]))
                            for k in sorted(set(kinds))},
    }


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def traced_segment(wl, budget, spans_path):
    """Traced run. For cli-cold each op's child interpreter traces itself."""
    if wl.name == "cli-cold":
        dumps = []
        spans_dir = os.path.dirname(spans_path)

        def driver():
            out = os.path.join(spans_dir, f"cli-op{len(dumps)}.json")
            dumps.append(out)
            return [sys.executable, os.path.join(HERE, "cli_driver.py"), out, str(len(dumps) - 1)]

        wl.driver = driver
        extra = {"exit2": 0, "bytes": 0}

        def hooks(out, b):
            if b > 0:  # counts cover block 0, like every count of the traced run
                return
            if out and out["code"] == 2:
                extra["exit2"] += 1
            if out and out.get("out_dir") and os.path.isdir(out["out_dir"]):
                for name in os.listdir(out["out_dir"]):
                    extra["bytes"] += os.path.getsize(os.path.join(out["out_dir"], name))

        res = segment(wl, budget, hooks=hooks)
        wl.driver = None
        spans, per_op_counts = [], {}
        for path in dumps:
            if not os.path.exists(path):  # the child failed before writing; the op failed
                continue
            with open(path, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(path)
            op_id = dump["op"]
            spans.extend(tuple(s) for s in dump["spans"])
            per_op_counts[op_id] = dump["counts"]
        res["exit2"] = extra["exit2"]
        res["bytes_written"] = extra["bytes"]
        res["per_op_counts"] = per_op_counts
    else:
        tracer = tr.Tracer().install()
        try:
            res = segment(wl, budget, tracer)
        finally:
            tracer.uninstall()
        spans = [tuple(s) for s in tracer.spans if s is not None]
        res["per_op_counts"] = tracer.op_counts
    res["factorizations_by_kind"] = tr.factorizations_by_kind(
        res["kinds"][:res["block0_ops"]], res["per_op_counts"])
    tr.write_spans(spans_path, spans, res["per_op_counts"])
    res["layers"] = tr.layer_metrics(spans, res["per_op_counts"], res)
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.work_dir)
    warm = wl.warmup()
    out, _, err = run_op(warm, -1)
    if hasattr(wl, "finish"):
        wl.finish(out)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    for op in wl.warmup_block():  # first-use costs of every op kind, untimed and unchecked
        op.call()
    budget = args.seconds / 2 if args.trace else args.seconds
    result = {"warmup_failure": err, "env": environment()}
    result["untraced"] = segment(wl, budget)
    if args.trace:
        result["traced"] = traced_segment(wl, budget, args.spans)
    for seg in ("untraced", "traced"):
        for key in ("kinds", "per_op_counts"):
            result.get(seg, {}).pop(key, None)
    # cli-cold does no package work in this process: its peak is the largest CLI interpreter's
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["alarms"] = getattr(wl, "alarms", [])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
