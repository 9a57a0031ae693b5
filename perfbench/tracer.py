"""Spans and counters recorded from outside the `improper` package.

`Tracer.install()` wraps, at run time and without editing any source file:

* every public function defined in an `improper` submodule, rebinding it
  in every module (and module-level dict) that holds a reference to it, so
  calls made through `from .x import f` and registries are seen too;
* `numpy.linalg` eigh/eigvalsh, svd, norm(., 2) (an SVD), inv and
  det/slogdet, as counters only;
* `scipy.spatial.cKDTree` as the package's entropy module sees it, with a
  span for the tree build and one for each query.

Spans are recorded only while an op is open (`with tracer.op(i):`), so the
benchmark's own input generation and reference checks are never counted.
Each span is (id, parent id, op id, name, start, end), kept in memory.
`tracer.uninstall()` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter
from contextlib import contextmanager

LINALG_COUNTED = {
    "eigh": "eigh", "eigvalsh": "eigh", "svd": "svd", "inv": "inv",
    "det": "det", "slogdet": "det",
}
# A factorization is an eigendecomposition, an SVD or an inversion.
FACTORIZATIONS = ("eigh", "svd", "inv")


def improper_modules():
    import improper

    mods = [improper]
    for info in pkgutil.iter_modules(improper.__path__):
        mods.append(importlib.import_module(f"improper.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_counts: dict = {}  # op id -> Counter
        self._stack: list[int] = []
        self._op = None
        self._undo: list = []
        self._clock = time.perf_counter

    # ------------------------------------------------------------------ spans
    @contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    def span(self, name, fn, *args, **kwargs):
        if self._op is None:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[sid] = (sid, parent, self._op, name, start, self._clock())
            self._stack.pop()

    def count(self, key, amount=1):
        if self._op is not None:
            self.op_counts.setdefault(self._op, Counter())[key] += amount

    # --------------------------------------------------------------- install
    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        import numpy as np

        mods = improper_modules()
        wrappers = {}
        for mod in mods[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (callable(value) and not isinstance(value, type)
                        and not attr.startswith("_")
                        and getattr(value, "__module__", None) == mod.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set(value, key, wrappers[id(item)])

        for attr, kind in LINALG_COUNTED.items():
            self._set(np.linalg, attr, self._counted(kind, getattr(np.linalg, attr)))
        norm = np.linalg.norm

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                self.count("linalg.svd")
            return norm(x, ord, *args, **kwargs)

        self._set(np.linalg, "norm", counted_norm)

        entropy_mod = importlib.import_module("improper.entropy")
        self._set(entropy_mod, "cKDTree", self._tree_class(entropy_mod.cKDTree))
        return self

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def _counted(self, kind, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(f"linalg.{kind}")
            return fn(*args, **kwargs)

        return counted

    def _tree_class(self, real_tree):
        tracer = self

        class TracedTree:
            def __init__(self, data, *args, **kwargs):
                tracer.count("entropy.trees_built")
                self._tree = tracer.span("entropy.knn_build", real_tree, data, *args, **kwargs)

            def query(self, x, *args, **kwargs):
                tracer.count("entropy.query_points", len(x))
                return tracer.span("entropy.knn_query", self._tree.query, x, *args, **kwargs)

        return TracedTree

    # ---------------------------------------------------------------- export
    def dump(self) -> dict:
        counts = Counter()
        for c in self.op_counts.values():
            counts.update(c)
        return {"spans": [list(s) for s in self.spans if s is not None], "counts": dict(counts)}


def self_times(spans) -> dict:
    """Total self time per span name: each span's duration minus its children's."""
    child_time = Counter()
    for sid, parent, _op, _name, start, end in spans:
        if parent >= 0:
            child_time[(_op, parent)] += end - start
    out = Counter()
    for sid, _parent, op, name, start, end in spans:
        out[name] += (end - start) - child_time[(op, sid)]
    return out


def call_counts(spans) -> Counter:
    return Counter(s[3] for s in spans)


def write_spans(path, spans, counts):
    """Write spans and counters, gzipped JSON: {"spans": [[id, parent, op, name, start, end]...]}."""
    import gzip
    import json

    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                   "spans": spans, "counts": counts}, fh)


ESTIMATORS = ("entropy.knn_entropy", "entropy.knn_kl_divergence",
              "analog.divergence_to_analog", "analog.analog_entropy_gap",
              "capacity.mc_mutual_information", "capacity.verify_circular_optimality")
# Per-command factorization counts are reported for these cli-cold op kinds.
CLI_COMMANDS = {"validate": "validate-n", "entropy": "entropy-n", "capacity_loss": "capacity-n"}


def factorizations_by_kind(kinds, per_op_counts) -> dict:
    """Mean factorizations per op for each op kind of block 0 (`kinds` lists its ops)."""
    seen = {}
    for op_id, kind in enumerate(kinds):
        c = per_op_counts.get(op_id, {})
        seen.setdefault(kind, []).append(sum(c.get(f"linalg.{k}", 0) for k in FACTORIZATIONS))
    return {kind: sum(v) / len(v) for kind, v in sorted(seen.items())}


def layer_metrics(spans, counts_by_op, res) -> dict:
    """Per-layer metrics of a traced segment.

    Times are self times per op over the whole segment. Counts are per op
    over block 0 only, whose inputs depend on the seed alone, so they repeat
    exactly from run to run.
    """
    ops = max(res["ops"], 1)
    n0 = res["block0_ops"]
    own = self_times(spans)
    spans0 = [sp for sp in spans if sp[2] < n0]
    calls = call_counts(spans0)
    counts = Counter()
    for op_id, c in counts_by_op.items():
        if op_id < n0:
            counts.update(c)

    def s(*names):
        return sum(own.get(n, 0.0) for n in names) / ops

    def per_op(value):
        return value / n0

    by_key = {(sp[2], sp[0]): sp for sp in spans0}

    def inside_estimator(sp):
        parent = sp[1]
        while parent >= 0:
            up = by_key[(sp[2], parent)]
            if up[3] in ESTIMATORS:
                return True
            parent = up[1]
        return False

    estimates = sum(1 for sp in spans0 if sp[3] in ESTIMATORS and not inside_estimator(sp))
    capacity_ops = len({sp[2] for sp in spans0
                        if sp[3] in ("capacity.solve_capacity", "capacity.capacity_loss")})
    fact = sum(counts[f"linalg.{k}"] for k in FACTORIZATIONS)
    out = {
        "cli.main_s": s("cli.main"),
        "cli.exit2_count": res.get("exit2", 0),
        "fileio.read_s": s("fileio.read_matrix", "fileio.read_samples"),
        "fileio.read_calls": per_op(calls["fileio.read_matrix"] + calls["fileio.read_samples"]),
        "fileio.write_s": s("fileio.write_matrix", "fileio.write_samples", "fileio.write_report"),
        "fileio.bytes_written": per_op(res.get("bytes_written", 0)),
        "second_order.validate_s": s("second_order.validate_pair"),
        "second_order.validate_calls": per_op(calls["second_order.validate_pair"]),
        "second_order.spectrum_s": s("second_order.circularity_spectrum"),
        "second_order.spectrum_calls": per_op(calls["second_order.circularity_spectrum"]),
        "second_order.sample_s": s("second_order.sample_gaussian"),
        "linalg.eigh_calls": per_op(counts["linalg.eigh"]),
        "linalg.svd_calls": per_op(counts["linalg.svd"]),
        "linalg.inv_calls": per_op(counts["linalg.inv"]),
        "linalg.det_calls": per_op(counts["linalg.det"]),
        "linalg.factorizations_per_op": per_op(fact),
        "linalg.takagi_s": s("linalg.takagi"),
        "entropy.closed_form_s": s("entropy.complex_gaussian_entropy",
                                   "entropy.neeser_massey_bound", "entropy.real_gaussian_entropy"),
        "entropy.knn_build_s": s("entropy.knn_build"),
        "entropy.knn_query_s": s("entropy.knn_query"),
        "entropy.trees_built": per_op(counts["entropy.trees_built"]),
        "entropy.query_points": per_op(counts["entropy.query_points"]),
        "entropy.trees_per_estimate": counts["entropy.trees_built"] / max(estimates, 1),
        "analog.circularize_s": s("analog.circularize"),
        "analog.model_s": s("analog.analog_gaussian_model"),
        "analog.divergence_self_s": s("analog.divergence_to_analog"),
        "transforms.sheared_s": s("transforms.real_to_polar", "transforms.polar_to_sheared"),
        "capacity.check_assumptions_calls":
            calls["capacity.check_assumptions"] / max(capacity_ops, 1),
        "capacity.check_s": s("capacity.check_assumptions"),
        "capacity.solve_s": s("capacity.solve_capacity"),
        "capacity.loss_s": s("capacity.capacity_loss"),
        "verify.algebra_s": s("verify.suite_algebra"),
        "verify.entropy_s": s("verify.suite_entropy"),
        "verify.analog_s": s("verify.suite_analog"),
        "verify.capacity_s": s("verify.suite_capacity"),
    }
    by_kind = res["factorizations_by_kind"]
    for command, prefix in CLI_COMMANDS.items():
        seen = [v for kind, v in by_kind.items() if kind.startswith(prefix)]
        out[f"linalg.factorizations_{command}"] = sum(seen) / len(seen) if seen else 0.0
    return out
