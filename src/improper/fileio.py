"""Text file formats used by the CLI.

Matrix file (JSON): {"n": rows, "m": cols, "re": [[...]], "im": [[...]]}
with re/im both n x m nested arrays of finite reals. NaN/Infinity tokens are
rejected at parse time.

Sample file (JSON): {"n": dim, "count": N, "seed": s, "re": [[N x n]],
"im": [[N x n]]}.

Reports are JSON documents with a "manifest" object (command, flags, seed,
version, timestamp) so a run can be reproduced exactly; floats are written
with Python's shortest round-trip representation.
"""

from __future__ import annotations

import datetime
import json

import numpy as np

from .second_order import SampleSet


class ParseError(ValueError):
    """Malformed input file (bad JSON, wrong fields, non-finite entries)."""


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} not allowed")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _as_real_array(doc: dict, path: str, field: str, shape) -> np.ndarray:
    if field not in doc:
        raise ParseError(f"{path}: missing field {field!r}")
    try:
        arr = np.asarray(doc[field], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: field {field!r} is not a numeric array") from exc
    if arr.shape != shape:
        raise ParseError(f"{path}: field {field!r} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: field {field!r} contains non-finite entries")
    return arr


def _positive_ints(doc: dict, path: str, *fields: str) -> tuple:
    for field in fields:
        if not isinstance(doc.get(field), int) or doc[field] < 1:
            raise ParseError(f"{path}: field {field!r} must be a positive integer")
    return tuple(doc[field] for field in fields)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_matrix(path: str) -> np.ndarray:
    """Read one complex matrix from a matrix file."""
    doc = _load_json(path)
    shape = _positive_ints(doc, path, "n", "m")
    re = _as_real_array(doc, path, "re", shape)
    im = _as_real_array(doc, path, "im", shape)
    return re + 1j * im


def write_matrix(path: str, a) -> None:
    a = np.asarray(a, dtype=complex)
    doc = {
        "n": int(a.shape[0]),
        "m": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }
    _write_json(path, doc)


def read_samples(path: str) -> SampleSet:
    doc = _load_json(path)
    n, count = _positive_ints(doc, path, "n", "count")
    shape = (count, n)
    re = _as_real_array(doc, path, "re", shape)
    im = _as_real_array(doc, path, "im", shape)
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ParseError(f"{path}: field 'seed' must be an integer")
    return SampleSet(data=re + 1j * im, seed=seed)


def write_samples(path: str, samples: SampleSet, manifest: dict | None = None) -> None:
    doc = {
        "n": int(samples.n),
        "count": int(samples.count),
        "seed": int(samples.seed),
        "re": samples.data.real.tolist(),
        "im": samples.data.imag.tolist(),
    }
    if manifest is not None:
        doc["manifest"] = manifest
    _write_json(path, doc)


def make_manifest(command: str, flags: dict, seed: int, version: str) -> dict:
    """Run manifest embedded in every report: command, flags, seed, version, timestamp."""
    return {
        "command": command,
        "flags": {k: flags[k] for k in sorted(flags)},
        "seed": int(seed),
        "version": version,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_report(path: str, report: dict) -> None:
    _write_json(path, report)
