"""Calibrate the kNN tolerances in reference.json on seeds never used for timing.

    PYTHONPATH=src python3 perfbench/calibrate.py

Runs the knn workload's estimator ops on SEEDS seeds of the calibration
stream (`CALIBRATION_TAG`), records each estimate's error against its exact
reference, and sets the tolerance of each (estimator, 2n) to
|mean error| + 6 standard deviations, and never below 1.25 times the
largest error seen. Rewrites the "knn_tolerances_nats" and
"knn_calibration" entries of reference.json.
"""

import json
import statistics
from collections import defaultdict

import workloads as wls

SEEDS = 8


def main():
    with open(wls.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    errors = defaultdict(list)
    for seed in range(SEEDS):
        wl = wls.Knn(seed, None, tag=wls.CALIBRATION_TAG)
        wl.tol = defaultdict(lambda: float("inf"))
        for op in wl.block(0):
            if op.kind.split("@")[0] in ("sample_gaussian", "circularize"):
                continue
            out = op.call()
            errors[op.kind].append(getattr(out, "value", out) - op.truth)
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:+.4f}" for k, v in sorted(errors.items())),
              flush=True)
    tols, calib = {}, {}
    for kind, errs in sorted(errors.items()):
        mean, sd = statistics.fmean(errs), statistics.stdev(errs)
        tol = max(abs(mean) + 6 * sd, 1.25 * max(abs(e) for e in errs))
        tols[kind] = float(f"{tol:.2g}")
        calib[kind] = {"mean_error": mean, "sd_error": sd, "max_abs_error": max(map(abs, errs)),
                       "seeds": SEEDS}
    ref["knn_tolerances_nats"] = tols
    ref["knn_calibration"] = calib
    with open(wls.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    print(json.dumps(tols, indent=2))


if __name__ == "__main__":
    main()
