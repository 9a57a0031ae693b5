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

Float repr is most of a large write, and no faster exact formatter exists,
so a document whose streamed arrays hold at least _SPLIT_MIN_FLOATS floats
in all, in two arrays or more (a sample file from 2^14 floats, never a
matrix file or a report), is formatted by two processes at once. Before
anything is written, the writer opens an anonymous spill file in the
output file's directory and forks; the child formats the last streamed
array (a sample file's "im") into the spill and leaves by os._exit, while
the parent writes everything before that array, reaps the child and copies
the spill into the output. Each process writes a block of rows at a time,
so neither holds the text. The bytes do not depend on the route: without
os.fork, when the fork or the spill fails with OSError, or when the child
exits non-zero or dies, the parent formats that array itself. On any
exception in the parent, KeyboardInterrupt included, the child is killed
and reaped, and the spill has no name to leave behind. Python 3.12 and
later warn (DeprecationWarning) on a fork from a process with several
threads, which numpy's OpenBLAS starts; the child calls no BLAS, prints
nothing and flushes no buffer it inherited.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import tempfile

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
# floats in a document's streamed arrays from which a forked child formats
# the last of them: the measured break-even of CHANGES.md
_SPLIT_MIN_FLOATS = 1 << 14


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


def _fork_rows(path: str, a: np.ndarray):
    """(spill, pid): a forked child writing _write_rows(a) into spill, then exiting 0.

    spill is an anonymous file opened in path's directory before the fork.
    (None, None) where this platform cannot fork, or where the spill or the
    fork fails with OSError. The child leaves only through os._exit.
    """
    if not hasattr(os, "fork"):
        return None, None
    try:
        spill = tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        spill.close()
        return None, None
    if pid:
        return spill, pid
    code = 1
    try:
        with open(spill.fileno(), "w", encoding="utf-8", closefd=False) as out:
            _write_rows(out, a)
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int) -> bool:
    """Wait for the child pid: True when it exited 0. False when it did not,
    or when its exit code is gone (with SIGCHLD ignored the system reaps it)."""
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    except ChildProcessError:
        return False


def _write_json(path: str, doc: dict) -> None:
    """json.dump(doc, fh, indent=2) plus a newline, byte for byte, for a dict with str keys.

    _streamable arrays among the values are written by _write_rows, any other
    array as its tolist() and every other value by json.dumps, re-indented.
    When two streamed arrays or more hold _SPLIT_MIN_FLOATS floats in all, a
    forked child formats the last of them (the module docstring).
    """
    streamed = [key for key, value in doc.items() if _streamable(value)]
    split = None
    if len(streamed) > 1 and sum(doc[key].size for key in streamed) >= _SPLIT_MIN_FLOATS:
        split = streamed[-1]
    with open(path, "w", encoding="utf-8") as fh:
        spill, pid = _fork_rows(path, doc[split]) if split is not None else (None, None)
        try:
            fh.write("{")
            for i, (key, value) in enumerate(doc.items()):
                fh.write(("," if i else "") + "\n  " + json.dumps(key) + ": ")
                if key == split and pid:
                    done = _reap(pid)
                    pid = None
                    if done:
                        fh.flush()
                        spill.seek(0)
                        shutil.copyfileobj(spill, fh.buffer)
                        continue
                if key in streamed:
                    _write_rows(fh, value)
                    continue
                if isinstance(value, np.ndarray):
                    value = value.tolist()
                fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            fh.write("\n}\n" if doc else "}\n")
        finally:
            if pid:
                import signal  # here only: the module costs a cold start about 1 ms

                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                _reap(pid)
            if spill is not None:
                spill.close()


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
