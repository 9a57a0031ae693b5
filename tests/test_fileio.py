import json
import os
import signal
import time

import numpy as np
import pytest

from improper import fileio, second_order as so
from improper.errors import DimensionMismatch, DomainError


def test_matrix_round_trip(tmp_path):
    path = tmp_path / "m.json"
    a = np.array([[1.5 + 2.25j, -0.125], [0.0, 3.75 - 1.0j]])
    fileio.write_matrix(path, a)
    np.testing.assert_array_equal(fileio.read_matrix(path), a)


def test_matrix_round_trip_is_exact_for_awkward_floats(tmp_path):
    path = tmp_path / "m.json"
    a = np.array([[1.0 / 3.0 + (2.0 / 7.0) * 1j]])
    fileio.write_matrix(path, a)
    assert fileio.read_matrix(path)[0, 0] == a[0, 0]


def test_read_matrix_rejects_nan_and_inf(tmp_path):
    for token in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "m": 1, "re": [[%s]], "im": [[0.0]]}' % token)
        with pytest.raises(fileio.ParseError):
            fileio.read_matrix(path)


def test_read_matrix_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(fileio.ParseError):
        fileio.read_matrix(path)
    path.write_text("[1, 2]")
    with pytest.raises(fileio.ParseError):
        fileio.read_matrix(path)
    path.write_text('{"n": 1, "m": 2, "re": [[1.0]], "im": [[0.0]]}')
    with pytest.raises(fileio.ParseError):
        fileio.read_matrix(path)
    path.write_text('{"n": 1, "m": 1, "re": [[1.0]]}')
    with pytest.raises(fileio.ParseError):
        fileio.read_matrix(path)
    with pytest.raises(fileio.ParseError):
        fileio.read_matrix(tmp_path / "missing.json")


@pytest.mark.parametrize("a, error", [
    (np.ones(2), DimensionMismatch),
    (np.zeros((0, 0)), DimensionMismatch),
    (np.array([[1.0, np.nan]]), DomainError),
], ids=["1-D", "0x0", "nan"])
def test_write_matrix_rejects_what_read_matrix_would_and_writes_nothing(tmp_path, a, error):
    path = tmp_path / "m.json"
    with pytest.raises(error) as err:
        fileio.write_matrix(path, a)
    assert type(err.value) is error
    assert not path.exists()


def test_samples_round_trip(tmp_path):
    path = tmp_path / "s.json"
    x = so.sample_gaussian(
        so.SecondOrderPair(cov=np.eye(2), pcov=0.3 * np.eye(2)), 50, seed=7)
    fileio.write_samples(path, x, manifest={"command": "test", "seed": 7})
    back = fileio.read_samples(path)
    np.testing.assert_array_equal(back.data, x.data)
    assert back.seed == x.seed
    doc = json.loads(path.read_text())
    assert doc["manifest"]["command"] == "test"


def test_make_manifest_fields():
    m = fileio.make_manifest("capacity", {"power": 2.0, "loss": True}, 5, "0.1.0")
    assert m["command"] == "capacity"
    assert m["seed"] == 5
    assert m["version"] == "0.1.0"
    assert list(m["flags"]) == sorted(m["flags"])
    assert "timestamp" in m


def test_write_report_deterministic_but_for_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        report = {"x": 0.1, "manifest": fileio.make_manifest("validate", {}, 0, "0.1.0")}
        fileio.write_report(path, report)
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da["manifest"].pop("timestamp")
    db["manifest"].pop("timestamp")
    assert da == db


def _sample_doc(re, im, manifest=True):
    doc = {"n": re.shape[1], "count": re.shape[0], "seed": 3, "re": re, "im": im}
    if manifest:
        doc["manifest"] = fileio.make_manifest("analog-sample", {"samples": 7}, 3, "0.1.0")
    return doc


def _tolist(doc):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}


AWKWARD = [-0.0, 5e-324, 1e16, 1.7976931348623157e308, -2.5e-7, 1.0 / 3.0]


@pytest.mark.parametrize("doc", [
    _sample_doc(np.array([[0.25]]), np.array([[-0.0]])),
    _sample_doc(np.array([AWKWARD]), -np.array([AWKWARD])),  # 1 x n
    _sample_doc(np.array([AWKWARD]).T, np.zeros((6, 1)), manifest=False),  # N x 1
    # more rows than one block, with a partial last block
    _sample_doc(*np.random.default_rng(1).standard_normal((2, 2 * fileio._ROW_BLOCK + 3, 3))),
    {"n": 2, "m": 2, "re": np.array([[np.nan, 1.0], [np.inf, -np.inf]]),
     "im": np.eye(2, dtype=int)},  # not streamed: json's NaN/Infinity and ints
    {"valid": True, "reason": None, "lambda_max": float("nan"), "bound": float("inf"),
     "spectrum": [0.5, -0.0, 1e-300], "empty": [], "none": {},
     "nested": {"label": "Kreiszeichen äß∂ \U0001f600", "flags": [False, 1, "x"],
                "deeper": {"list": [[1.5, 2], {"k": None}]}},
     "manifest": fileio.make_manifest("verify", {"suite": "all"}, 0, "0.1.0")},
    {},
], ids=["1x1", "1xn", "Nx1", "row-blocks", "non-finite-array", "report", "empty"])
def test_write_json_is_json_dump_indent_2_byte_for_byte(tmp_path, doc):
    path = tmp_path / "doc.json"
    fileio._write_json(str(path), doc)
    assert path.read_bytes() == (json.dumps(_tolist(doc), indent=2) + "\n").encode("utf-8")


def test_samples_round_trip_bit_for_bit(tmp_path):
    path = tmp_path / "s.json"
    rng = np.random.default_rng(2)
    data = rng.standard_normal((fileio._ROW_BLOCK + 5, 2)) * np.exp(rng.uniform(-300, 300, (1, 2)))
    data = data + 1j * rng.standard_normal(data.shape)
    data[:3, 0] = np.array(AWKWARD[:3]) + 1j * np.array(AWKWARD[3:])
    x = so.SampleSet(data=data, seed=11)
    fileio.write_samples(path, x)
    back = fileio.read_samples(path)
    assert back.data.tobytes() == x.data.tobytes()
    assert back.seed == 11


@pytest.mark.parametrize("field, value, low", [
    ("seed", -1, 0), ("seed", 1.5, 0), ("seed", True, 0), ("seed", "3", 0),
    ("n", True, 1), ("count", True, 1),
])
def test_read_samples_reads_its_integers_through_the_gate(tmp_path, field, value, low):
    path = tmp_path / "s.json"
    doc = {"n": 1, "count": 1, "seed": 0, "re": [[0.5]], "im": [[0.0]]}
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(fileio.ParseError, match=f"{field} must be an integer >= {low}"):
        fileio.read_samples(path)


def test_read_samples_holds_a_read_only_array_and_writes_the_seed_it_was_given(tmp_path):
    path = tmp_path / "s.json"
    fileio.write_samples(path, so.SampleSet(data=np.ones((2, 1)), seed=np.int64(4)))
    back = fileio.read_samples(path)
    assert not back.data.flags.writeable
    assert back.seed == 4 and type(back.seed) is int
    assert json.loads(path.read_text())["seed"] == 4


NON_NUMERIC = {
    "true/false": ([[True, 1.5]], [[0, 0.25]]),
    "string": ([[1, 1.5]], [[0, "0.25"]]),
    "null": ([[1.0, 1.5]], [[None, 0.25]]),
    "true/false, string": ([[True, 1.5]], [[0, "0.25"]]),
}


@pytest.mark.parametrize("kinds", NON_NUMERIC)
def test_readers_reject_entries_that_are_not_json_numbers(tmp_path, kinds):
    re, im = NON_NUMERIC[kinds]
    docs = {fileio.read_matrix: {"n": 1, "m": 2, "re": re, "im": im},
            fileio.read_samples: {"n": 2, "count": 1, "seed": 0, "re": re, "im": im}}
    field = "'re'" if kinds.startswith("true") else "'im'"
    for read, doc in docs.items():
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(fileio.ParseError, match=f"{field} has non-numeric entries"):
            read(path)
    both = {"n": 1, "m": 2, "re": [[False, "1"]], "im": [[0, 0]]}
    path.write_text(json.dumps(both))
    with pytest.raises(fileio.ParseError, match=r"\(string, true/false\)"):
        fileio.read_matrix(path)


def test_read_matrix_rejects_an_integer_beyond_float_range(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "m": 1, "re": [[1%s]], "im": [[0]]}' % ("0" * 400))
    with pytest.raises(fileio.ParseError, match="not a numeric array"):
        fileio.read_matrix(path)


SPLIT = fileio._SPLIT_MIN_FLOATS


def _large_sample_doc():
    """A 20000 x 16 sample document with AWKWARD values in the first and last
    row blocks of both arrays."""
    rng = np.random.default_rng(3)
    re, im = rng.standard_normal((2, 20000, 16)) * np.exp(rng.uniform(-30, 30, (2, 1, 16)))
    for a, sign in ((re, 1.0), (im, -1.0)):
        a[0, :6] = a[-1, -6:] = sign * np.array(AWKWARD)
    return _sample_doc(re, im)


def _split_doc():
    """The smallest sample document that is split, in more than one row block."""
    return _sample_doc(*np.random.default_rng(4).standard_normal((2, SPLIT // 4, 2)))


def _half(rows):
    return np.random.default_rng(rows).standard_normal((rows, 1))


def _counted_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_written_as_json_dumps(tmp_path, doc):
    path = tmp_path / "doc.json"
    fileio._write_json(str(path), doc)
    assert path.read_bytes() == (json.dumps(_tolist(doc), indent=2) + "\n").encode("utf-8")
    assert os.listdir(tmp_path) == ["doc.json"]  # the spill leaves no file
    with pytest.raises(ChildProcessError):  # and the child is reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("doc, forks", [
    (_large_sample_doc(), 1),
    ({"re": _half(SPLIT // 2), "im": _half(SPLIT // 2 - 1)}, 0),
    ({"re": _half(SPLIT // 2), "im": _half(SPLIT // 2), "after": [1.5, None]}, 1),
    (_split_doc(), 1),
    ({"n": 2, "re": np.ones((SPLIT, 2)), "im": np.ones((1, 1)).astype(int)}, 0),
], ids=["20000x16", "just-below-split", "at-split", "at-split-row-blocks",
       "one-large-array"])
def test_split_write_is_json_dump_indent_2_byte_for_byte(tmp_path, monkeypatch, doc, forks):
    counted = _counted_forks(monkeypatch)
    _assert_written_as_json_dumps(tmp_path, doc)
    assert len(counted) == forks


def _fork_fails():
    raise OSError("fork failed")


@pytest.mark.parametrize("break_fork", [
    lambda mp: mp.setattr(os, "fork", _fork_fails),
    lambda mp: mp.delattr(os, "fork"),
], ids=["fork-raises-OSError", "no-os.fork"])
def test_split_write_formats_in_process_without_a_fork(tmp_path, monkeypatch, break_fork):
    break_fork(monkeypatch)
    _assert_written_as_json_dumps(tmp_path, _split_doc())


def test_split_write_with_sigchld_ignored_formats_in_process(tmp_path):
    # the system reaps the child, so its exit code cannot be read
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        _assert_written_as_json_dumps(tmp_path, _split_doc())
    finally:
        signal.signal(signal.SIGCHLD, previous)


def _rows_in(monkeypatch, child=None, parent=None):
    """Patch fileio._write_rows: in the forked child run child(), in this
    process parent(), then each writes its rows as before."""
    real_rows, this = fileio._write_rows, os.getpid()

    def rows(fh, a):
        action = parent if os.getpid() == this else child
        if action is not None:
            action()
        real_rows(fh, a)

    monkeypatch.setattr(fileio, "_write_rows", rows)


def _raise_in_child():
    raise RuntimeError("child fails")


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("child", [_raise_in_child, _die], ids=["child-exits-1", "child-dies"])
def test_split_write_formats_in_process_when_the_child_fails(tmp_path, monkeypatch, child):
    _rows_in(monkeypatch, child=child)
    _assert_written_as_json_dumps(tmp_path, _split_doc())


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_parent_that_raises_mid_write_leaves_no_child(tmp_path, monkeypatch, error):
    def raise_error():
        raise error("parent fails")

    _rows_in(monkeypatch, child=lambda: time.sleep(60), parent=raise_error)
    start = time.monotonic()
    with pytest.raises(error, match="parent fails"):
        fileio._write_json(str(tmp_path / "doc.json"), _split_doc())
    assert time.monotonic() - start < 30  # killed, not waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["doc.json"]
