"""Text file formats used by the CLI.

Matrix file (JSON): {"n": rows, "m": cols, "re": [[...]], "im": [[...]]}
with re/im both n x m nested arrays of finite JSON numbers. NaN/Infinity
tokens are rejected at parse time, and true/false or a quoted number are
not numbers.

Sample file (JSON): {"n": dim, "count": N, "seed": s, "re": [[N x n]],
"im": [[N x n]]}.

Reports are JSON documents with a "manifest" object (command, flags, seed,
version, timestamp) so a run can be reproduced exactly; floats are written
with Python's shortest round-trip representation.

Every file is written byte for byte as json.dump(doc, fh, indent=2) plus a
newline would write it, but 2-D float arrays among the document's top-level
values are streamed: _ROW_BLOCK rows at a time go through float repr (the
formatting json itself uses) and straight to the file. json's indented
encoder is pure Python, so this is what keeps a large sample file fast, and
the memory it takes stays flat in the number of samples.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from . import linalg
from .errors import DomainError
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


_JSON_NAMES = {bool: "true/false", str: "string", type(None): "null"}


def _as_real_array(doc: dict, path: str, field: str, shape) -> np.ndarray:
    """doc[field] as a finite float array of the given 2-D shape, else ParseError.

    Every entry must be a JSON number: numpy would read true/false as 1/0 and
    a string such as "1.5" as 1.5.
    """
    if field not in doc:
        raise ParseError(f"{path}: missing field {field!r}")
    try:
        arr = np.asarray(doc[field], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: field {field!r} is not a numeric array") from exc
    if arr.shape != shape:
        raise ParseError(f"{path}: field {field!r} has shape {arr.shape}, expected {shape}")
    # the shape test passed, so doc[field] is a list of rows of scalars
    kinds = set(map(type, itertools.chain.from_iterable(doc[field])))
    if not kinds <= {int, float}:
        names = ", ".join(sorted(_JSON_NAMES[kind] for kind in kinds - {int, float}))
        raise ParseError(f"{path}: field {field!r} has non-numeric entries ({names})")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: field {field!r} contains non-finite entries")
    return arr


def _int_field(doc: dict, path: str, field: str, low: int = 1, default=None) -> int:
    """doc[field] (default when absent) through linalg's integer gate, else ParseError."""
    try:
        return linalg._int_at_least(doc.get(field, default), field, low)
    except DomainError as exc:
        raise ParseError(f"{path}: field {exc}") from exc


_ROW_BLOCK = 2048  # rows formatted per write by _write_rows


def _streamable(value) -> bool:
    """A non-empty finite 2-D float64 array, whose tolist() repr is json's text for it."""
    return (isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 2
            and value.size > 0 and bool(np.isfinite(value).all()))


def _write_rows(fh, a: np.ndarray) -> None:
    """Write a _streamable array as json.dump(indent=2) writes its tolist() as a
    top-level value of a document: rows indented by 4 spaces, entries by 6."""
    fh.write("[\n    [\n      ")
    for start in range(0, a.shape[0], _ROW_BLOCK):
        if start:
            fh.write("\n    ],\n    [\n      ")
        # "[[a, b], [c, d]]" -> "a,\n      b\n    ],\n    [\n      c,\n      d"
        text = repr(a[start:start + _ROW_BLOCK].tolist())[2:-2]
        fh.write(text.replace("], [", "\n    ],\n    [\n      ").replace(", ", ",\n      "))
    fh.write("\n    ]\n  ]")


def _write_json(path: str, doc: dict) -> None:
    """json.dump(doc, fh, indent=2) plus a newline, byte for byte, for a dict with str keys.

    _streamable arrays among the values are written by _write_rows, any other
    array as its tolist() and every other value by json.dumps, re-indented.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write(("," if i else "") + "\n  " + json.dumps(key) + ": ")
            if _streamable(value):
                _write_rows(fh, value)
                continue
            if isinstance(value, np.ndarray):
                value = value.tolist()
            fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
        fh.write("\n}\n" if doc else "}\n")


def read_matrix(path: str) -> np.ndarray:
    """Read one complex matrix from a matrix file."""
    doc = _load_json(path)
    shape = (_int_field(doc, path, "n"), _int_field(doc, path, "m"))
    re = _as_real_array(doc, path, "re", shape)
    im = _as_real_array(doc, path, "im", shape)
    return re + 1j * im


def write_matrix(path: str, a) -> None:
    """Write one complex matrix; rejects what read_matrix would, before opening the file."""
    a = linalg.as_matrix(a)
    doc = {
        "n": int(a.shape[0]),
        "m": int(a.shape[1]),
        "re": a.real,
        "im": a.imag,
    }
    _write_json(path, doc)


def read_samples(path: str) -> SampleSet:
    doc = _load_json(path)
    n, count = _int_field(doc, path, "n"), _int_field(doc, path, "count")
    shape = (count, n)
    re = _as_real_array(doc, path, "re", shape)
    im = _as_real_array(doc, path, "im", shape)
    seed = _int_field(doc, path, "seed", 0, default=0)
    return SampleSet(data=re + 1j * im, seed=seed)


def write_samples(path: str, samples: SampleSet, manifest: dict | None = None) -> None:
    doc = {
        "n": int(samples.n),
        "count": int(samples.count),
        "seed": samples.seed,
        "re": samples.data.real,
        "im": samples.data.imag,
    }
    if manifest is not None:
        doc["manifest"] = manifest
    _write_json(path, doc)


def make_manifest(command: str, flags: dict, seed: int, version: str) -> dict:
    """Run manifest embedded in every report: command, flags, seed, version, timestamp."""
    import datetime

    return {
        "command": command,
        "flags": {k: flags[k] for k in sorted(flags)},
        "seed": int(seed),
        "version": version,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_report(path: str, report: dict) -> None:
    _write_json(path, report)
