"""Command-line entry point.

Subcommands: validate, entropy, capacity, analog-sample, verify. Shared
flags --seed, --samples, --bits, --output are accepted after any
subcommand. All internal math is in nats; --bits rescales printed values
only, written reports always carry nats.

Exit codes: 0 success, 1 I/O or parse or usage error, 2 domain rejection
(invalid pair, assumption violation), 3 verification-suite failure.

Only what parsing arguments and reading files needs is imported here; each
command imports the modules it computes with, so a cold `improper validate`
never loads the entropy, capacity, analog or verify code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import __version__, second_order
from .errors import AssumptionViolated, DomainError, InvalidPair
from .fileio import (ParseError, make_manifest, read_matrix, write_matrix,
                     write_report, write_samples)

LN2 = float(np.log(2.0))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the exit-code contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low: int):
    """argparse type: an int >= low (a bad value is a usage error, exit 1)."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _suite(text: str) -> str:
    """argparse type: a name in verify.SUITES; imports verify, so only `verify` parses it."""
    from .verify import SUITES

    if text not in SUITES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, SUITES))})")
    return text


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="base seed for every random draw (default 0)")
    common.add_argument("--samples", type=_int_at_least(1), default=None,
                        help="Monte Carlo sample count (command-specific default)")
    common.add_argument("--bits", action="store_true",
                        help="print entropies and rates in bits instead of nats")
    common.add_argument("--output", default=None, metavar="DIR",
                        help="directory to write JSON/CSV reports into")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="improper",
                     description="Second-order analysis of improper complex "
                                 "random vectors: validity, entropy, circular "
                                 "analogs, and channel capacity.")
    parser.add_argument("--version", action="version", version=__version__)
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", parents=[common],
                       help="check a (C, P) pair and print its circularity spectrum")
    p.add_argument("cov_file", help="matrix file holding C")
    p.add_argument("pcov_file", help="matrix file holding P")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("entropy", parents=[common],
                       help="closed-form entropy and covariance-only bound of a pair")
    p.add_argument("cov_file", help="matrix file holding C")
    p.add_argument("pcov_file", help="matrix file holding P")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("capacity", parents=[common],
                       help="high-power capacity of a linear channel with improper noise")
    p.add_argument("h_file", help="matrix file holding the channel matrix H")
    p.add_argument("noise_cov_file", help="matrix file holding the noise C")
    p.add_argument("noise_pcov_file", help="matrix file holding the noise P")
    p.add_argument("--power", type=float, required=True,
                   help="transmit power budget S")
    p.add_argument("--loss", action="store_true",
                   help="also report the rate lost by a properness-assuming design")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("analog-sample", parents=[common],
                       help="draw Gaussian samples for a pair and write their circular analog")
    p.add_argument("cov_file", help="matrix file holding C")
    p.add_argument("pcov_file", help="matrix file holding P")
    p.set_defaults(func=cmd_analog_sample)

    p = sub.add_parser("verify", parents=[common],
                       help="run a seeded property suite and report each check")
    p.add_argument("--suite", type=_suite, default="all",
                   help="which suite to run (default all)")
    p.set_defaults(func=cmd_verify)
    return parser


def _token(exc) -> str:
    if isinstance(exc, InvalidPair):
        return exc.reason
    name = type(exc).__name__
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()


def _load_pair(cov_file, pcov_file) -> second_order.SecondOrderPair:
    c = read_matrix(cov_file)
    p = read_matrix(pcov_file)
    return second_order.SecondOrderPair(cov=c, pcov=p)


def _unit(args) -> tuple[float, str]:
    return (LN2, "bits") if args.bits else (1.0, "nats")


def _flags_dict(args, names) -> dict:
    return {name: getattr(args, name.replace("-", "_")) for name in names}


def _emit_report(args, name, flags, body) -> None:
    if args.output is None:
        return
    os.makedirs(args.output, exist_ok=True)
    report = dict(body)
    report["manifest"] = make_manifest(name, flags, args.seed, __version__)
    write_report(os.path.join(args.output, "report.json"), report)


def cmd_validate(args) -> int:
    pair = _load_pair(args.cov_file, args.pcov_file)
    result = pair.factors.validity
    body = {"valid": result.valid, "reason": result.reason}
    if result.valid:
        lams = second_order.circularity_spectrum(pair)
        print(f"valid, lambda_max={result.max_lambda!r}")
        print("spectrum: " + " ".join(repr(float(v)) for v in lams))
        body["lambda_max"] = result.max_lambda
        body["spectrum"] = [float(v) for v in lams]
    else:
        print(f"invalid: {result.reason}")
        if np.isfinite(result.max_lambda):
            print(f"lambda_max={result.max_lambda!r}")
            body["lambda_max"] = result.max_lambda
    _emit_report(args, "validate", _flags_dict(args, ()), body)
    return 0 if result.valid else 2


def cmd_entropy(args) -> int:
    from .entropy import complex_gaussian_entropy, neeser_massey_bound

    pair = _load_pair(args.cov_file, args.pcov_file)
    ent = complex_gaussian_entropy(pair)
    bound = neeser_massey_bound(pair)
    lams = second_order.circularity_spectrum(pair)
    scale, unit = _unit(args)
    print(f"entropy: {ent.value / scale!r} {unit}")
    print(f"covariance-only bound: {bound.value / scale!r} {unit}")
    print(f"gap to bound: {(bound.value - ent.value) / scale!r} {unit}")
    print("spectrum: " + " ".join(repr(float(v)) for v in lams))
    body = {
        "entropy_nats": ent.value,
        "neeser_massey_bound_nats": bound.value,
        "spectrum": [float(v) for v in lams],
    }
    _emit_report(args, "entropy", _flags_dict(args, ("bits",)), body)
    return 0


def cmd_capacity(args) -> int:
    from . import capacity

    h = read_matrix(args.h_file)
    noise = _load_pair(args.noise_cov_file, args.noise_pcov_file)
    spec = capacity.ChannelSpec(h=h, noise=noise, power=args.power)
    try:
        result = capacity.solve_capacity(spec)
    except AssumptionViolated as exc:
        print("assumption violations:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v.name}: measured {v.measured!r}, threshold {v.threshold!r}"
                  + (f" ({v.detail})" if v.detail else ""), file=sys.stderr)
        return 2
    # the loss is printed under --loss and written under --output
    loss = capacity.capacity_loss(spec) if args.loss or args.output is not None else None
    scale, unit = _unit(args)
    print(f"capacity: {result.capacity_nats / scale!r} {unit}")
    print(f"water level: {result.water_level!r}")
    print("noise spectrum: " + " ".join(repr(float(v)) for v in result.spectrum))
    if args.loss:
        print(f"properness-design loss: {loss.delta_c_nats / scale!r} {unit}")
        print("loss coefficients: " + " ".join(repr(float(v)) for v in loss.mus))

    if args.output is not None:
        os.makedirs(args.output, exist_ok=True)
        flags = _flags_dict(args, ("power", "loss", "bits"))
        body = {
            "capacity_nats": result.capacity_nats,
            "water_level": result.water_level,
            "noise_spectrum": [float(v) for v in result.spectrum],
            "delta_c_nats": loss.delta_c_nats,
            "loss_coefficients": [float(v) for v in loss.mus],
        }
        _emit_report(args, "capacity", flags, body)
        write_matrix(os.path.join(args.output, "input_C.json"),
                     result.input_pair.cov)
        write_matrix(os.path.join(args.output, "input_P.json"),
                     result.input_pair.pcov)
        _append_csv_row(os.path.join(args.output, "capacity_runs.csv"), [
            spec.dim, args.power, float(result.spectrum[0]),
            result.capacity_nats, loss.delta_c_nats, result.water_level,
            args.seed,
        ])
    return 0


def _append_csv_row(path, row) -> None:
    import csv

    header = ["n", "S", "lambda_max", "capacity_nats", "delta_c_nats",
              "water_level", "seed"]
    fresh = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def cmd_analog_sample(args) -> int:
    if args.output is None:
        print("analog-sample requires --output", file=sys.stderr)
        return 1
    from .analog import circularize

    pair = _load_pair(args.cov_file, args.pcov_file)
    count = 10_000 if args.samples is None else args.samples
    seed_x, seed_psi = second_order._spawn_seeds(args.seed, 2)
    gauss = second_order.sample_gaussian(pair, count, seed_x)
    rotated = circularize(gauss, seed_psi)
    emp = second_order.empirical_pair(rotated)  # before writing: a rejected run leaves no file
    os.makedirs(args.output, exist_ok=True)
    path = os.path.join(args.output, "analog_samples.json")
    manifest = make_manifest("analog-sample", _flags_dict(args, ("samples",)),
                             args.seed, __version__)
    write_samples(path, rotated, manifest=manifest)
    print(f"wrote {count} circular-analog samples (n={pair.dim}) to {path}")
    print(f"max |empirical P| after circularizing: {float(np.max(np.abs(emp.pcov))):.2e}")
    return 0


def cmd_verify(args) -> int:
    import dataclasses

    from . import verify

    samples = verify.DEFAULT_SAMPLES if args.samples is None else args.samples
    results = verify.run_suite(args.suite, args.seed, samples)
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"(suite={args.suite}, seed={args.seed}, samples={samples})")
    body = {
        "suite": args.suite,
        "passed": failed == 0,
        "results": [dataclasses.asdict(r) for r in results],
    }
    _emit_report(args, "verify", _flags_dict(args, ("suite", "samples")), body)
    return 0 if failed == 0 else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {_token(exc)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
