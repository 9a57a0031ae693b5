import csv
import json

import numpy as np
import pytest

from improper import fileio
from improper.cli import main


def write_scalar(path, value):
    fileio.write_matrix(path, np.array([[value]], dtype=complex))


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, value in [("C", 1.0), ("P", 0.5), ("P_big", 1.5), ("P0", 0.0), ("H", 1.0)]:
        paths[name] = str(tmp_path / f"{name}.json")
        write_scalar(paths[name], value)
    paths["dir"] = str(tmp_path)
    return paths


def test_validate_valid(files, capsys):
    assert main(["validate", files["C"], files["P"]]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "valid, lambda_max=0.5"
    assert out[1].startswith("spectrum: 0.5")


def test_validate_invalid(files, capsys):
    assert main(["validate", files["C"], files["P_big"]]) == 2
    out = capsys.readouterr().out
    assert "invalid: SPECTRUM_EXCEEDS_ONE" in out


def test_validate_parse_error(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "m": 1, "re": [[NaN]], "im": [[0.0]]}')
    assert main(["validate", files["C"], str(bad)]) == 1
    assert main(["validate", files["C"], str(tmp_path / "nope.json")]) == 1


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["capacity", "only-one-file"]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "capacity", "--samples", "0"],
    ["analog-sample", "C", "P", "--samples", "-3", "--output", "d"],
    ["verify", "--seed", "-1"],
    ["verify", "--seed", "abc"],
])
def test_bad_seed_or_samples_is_a_usage_error(files, argv, capsys):
    argv = [files.get(a, a) if a in ("C", "P") else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if "error:" in line]) == 1


def test_entropy_nats_and_bits(files, capsys):
    assert main(["entropy", files["C"], files["P0"]]) == 0
    nats_line = capsys.readouterr().out.splitlines()[0]
    assert float(nats_line.split()[1]) == pytest.approx(np.log(np.pi * np.e), abs=1e-12)
    assert main(["entropy", files["C"], files["P0"], "--bits"]) == 0
    bits_line = capsys.readouterr().out.splitlines()[0]
    assert float(bits_line.split()[1]) == pytest.approx(
        np.log(np.pi * np.e) / np.log(2), abs=1e-12)
    assert bits_line.endswith("bits")


def test_entropy_gap_matches_closed_form(files, tmp_path, capsys):
    p06 = str(tmp_path / "P06.json")
    write_scalar(p06, 0.6)
    assert main(["entropy", files["C"], p06]) == 0
    gap_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("gap")][0]
    assert float(gap_line.split()[3]) == pytest.approx(-0.5 * np.log(1 - 0.36), abs=1e-12)


def test_entropy_spectrum_at_one_exits_two(files, capsys):
    assert main(["entropy", files["C"], files["C"]]) == 2
    assert "SPECTRUM_AT_ONE" in capsys.readouterr().err


def test_capacity_prints_and_writes(files, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["capacity", files["H"], files["C"], files["P"],
                 "--power", "2", "--loss", "--output", str(out_dir)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split()[1]) == pytest.approx(
        np.log(3) - 0.5 * np.log(0.75), abs=1e-12)
    assert float(lines[1].split()[2]) == pytest.approx(3.0)
    loss_line = [l for l in lines if l.startswith("properness")][0]
    assert float(loss_line.split()[2]) == pytest.approx(-0.5 * np.log(35 / 36), abs=1e-12)

    report = json.loads((out_dir / "report.json").read_text())
    assert report["capacity_nats"] == pytest.approx(np.log(3) - 0.5 * np.log(0.75))
    assert report["manifest"]["command"] == "capacity"
    np.testing.assert_allclose(fileio.read_matrix(out_dir / "input_C.json"), [[2.0]])
    np.testing.assert_allclose(fileio.read_matrix(out_dir / "input_P.json"), [[-0.5]])

    with open(out_dir / "capacity_runs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "S", "lambda_max", "capacity_nats", "delta_c_nats",
                       "water_level", "seed"]
    assert len(rows) == 2
    assert float(rows[1][3]) == pytest.approx(np.log(3) - 0.5 * np.log(0.75))


def test_capacity_loss_of_proper_noise_is_positive_zero(files, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["capacity", files["H"], files["C"], files["P0"],
                 "--power", "2", "--loss", "--output", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "properness-design loss: 0.0 nats" in lines
    assert '"delta_c_nats": 0.0' in (out_dir / "report.json").read_text()


def test_capacity_csv_appends(files, tmp_path):
    out_dir = str(tmp_path / "out")
    for _ in range(2):
        main(["capacity", files["H"], files["C"], files["P"],
              "--power", "2", "--output", out_dir])
    with open(tmp_path / "out" / "capacity_runs.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # header + two runs


def test_capacity_no_files_without_output(files, tmp_path, capsys):
    assert main(["capacity", files["H"], files["C"], files["P"], "--power", "2"]) == 0
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "capacity_runs.csv").exists()


def test_capacity_skips_loss_without_loss_or_output(files, monkeypatch, capsys):
    assert main(["capacity", files["H"], files["C"], files["P"], "--power", "2"]) == 0
    expected = capsys.readouterr().out

    def no_loss(spec):
        raise AssertionError("capacity_loss called without --loss or --output")

    monkeypatch.setattr("improper.capacity.capacity_loss", no_loss)
    assert main(["capacity", files["H"], files["C"], files["P"], "--power", "2"]) == 0
    assert capsys.readouterr().out == expected
    with pytest.raises(AssertionError):
        main(["capacity", files["H"], files["C"], files["P"], "--power", "2", "--loss"])


def test_capacity_violation_exits_two(files, capsys):
    code = main(["capacity", files["H"], files["C"], files["P"], "--power", "0.1"])
    assert code == 2
    assert "HIGH_SNR" in capsys.readouterr().err


@pytest.mark.parametrize("power", ["nan", "inf", "-1"])
def test_capacity_bad_power_is_a_domain_error(files, power, capsys):
    argv = ["capacity", files["H"], files["C"], files["P"], "--power", power]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DOMAIN_ERROR: power budget"), err


def test_capacity_report_determinism(files, tmp_path):
    dirs = [str(tmp_path / d) for d in ("r1", "r2")]
    for d in dirs:
        main(["capacity", files["H"], files["C"], files["P"],
              "--power", "2", "--loss", "--output", d])
    docs = []
    for d in dirs:
        doc = json.loads(open(f"{d}/report.json").read())
        doc["manifest"].pop("timestamp")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_analog_sample_writes_samples(files, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["analog-sample", files["C"], files["P"],
                 "--samples", "2000", "--seed", "9", "--output", str(out_dir)])
    assert code == 0
    back = fileio.read_samples(out_dir / "analog_samples.json")
    assert back.count == 2000
    assert back.n == 1
    # the written set is the circular analog: pseudo-covariance is erased
    p_hat = np.abs(np.mean(back.data[:, 0] ** 2))
    assert p_hat <= 5.0 / np.sqrt(2000)
    doc = json.loads((out_dir / "analog_samples.json").read_text())
    assert doc["manifest"]["seed"] == 9


def test_analog_sample_rejected_run_writes_no_file(files, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["analog-sample", files["C"], files["P"], "--samples", "1",
                 "--output", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: TOO_FEW_SAMPLES: ")
    assert not (out_dir / "analog_samples.json").exists()


def test_analog_sample_requires_output(files, capsys):
    assert main(["analog-sample", files["C"], files["P"]]) == 1


def test_analog_sample_deterministic(files, tmp_path):
    outs = []
    for d in ("s1", "s2"):
        main(["analog-sample", files["C"], files["P"], "--samples", "500",
              "--seed", "4", "--output", str(tmp_path / d)])
        outs.append(fileio.read_samples(tmp_path / d / "analog_samples.json"))
    np.testing.assert_array_equal(outs[0].data, outs[1].data)


def test_verify_algebra_suite(files, capsys):
    assert main(["verify", "--suite", "algebra", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert out.strip().splitlines()[-1].endswith("(suite=algebra, seed=7, samples=100000)")


def test_verify_round_trip_small_p_next_to_c(capsys):
    # at this seed |P| << |C| for one pair; the round-trip error of P is
    # ~1e-12 of |P| but ~1e-16 of the embedded pair's scale |C| + |P|
    assert main(["verify", "--suite", "algebra", "--seed", "1139311386"]) == 0
    line = [l for l in capsys.readouterr().out.splitlines()
            if "real covariance round-trip" in l][0]
    assert line.startswith("[PASS]")
    assert "(tol 1e-12)" in line


def test_verify_writes_report(files, tmp_path, capsys):
    out_dir = tmp_path / "v"
    assert main(["verify", "--suite", "capacity", "--seed", "7",
                 "--samples", "2000", "--output", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["suite"] == "capacity"
    assert report["passed"] is True
    assert all(r["passed"] for r in report["results"])
    fields = {"name", "passed", "detail", "measured", "tolerance", "samples", "k", "d", "values"}
    assert all(set(r) == fields for r in report["results"])
    mi = [r for r in report["results"]
          if r["name"].endswith("circularized input cannot lose mutual information")][0]
    assert (mi["samples"], mi["k"], mi["d"]) == (2000, 4, 2)
    assert mi["measured"] >= mi["tolerance"]
    assert mi["measured"] == pytest.approx(mi["values"]["rot"] - mi["values"]["orig"])
    assert f"{mi['values']['three_se']:.4f}" in mi["detail"]
    printed = capsys.readouterr().out.splitlines()
    assert f"[PASS] {mi['name']}: {mi['detail']}" in printed


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 1


def test_version_flag(capsys):
    assert main(["--version"]) == 0
