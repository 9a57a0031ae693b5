"""End-to-end acceptance criteria, one test per criterion.

Each criterion is a row of CRITERIA: the names of the `improper.verify`
registry checks it runs, at seed 100N, and its sample size (2e5 draws with
kNN at k = 4; 1e5 for criterion 10's phase KS test). The checks are the ones
`improper verify` runs, so `improper verify --suite S --seed 100N --samples
<size>` prints the same numbers for every check a criterion shares with a
suite. Each criterion records a visible PASS/FAIL line with the detail of
every check it ran (printed in the terminal summary).
"""

import pytest

from conftest import record_criterion
from improper import verify

N_MC = 200_000

CRITERIA = {
    1: (("embedding identities",), N_MC),
    2: (("takagi factorization",), N_MC),
    3: (("pair validity",), N_MC),
    4: (("Gaussian closed forms",), N_MC),
    5: (("improper Gaussian kNN entropy",), N_MC),
    6: (("improper Gaussian divergence", "circular competitor divergence"), N_MC),
    7: (("worked capacity examples", "random admissible specs"), N_MC),
    8: (("random admissible specs", "Monte Carlo loss gap"), N_MC),
    9: (("circularized BPSK input", "circularized improper inputs"), N_MC),
    10: (("transform round trips", "polar density integral",
          "circular analog of improper Gaussian", "circularized 3-PSK has no odd moments"),
         100_000),
}


def _criterion(num):
    names, samples = CRITERIA[num]
    results = verify._run_checks(names, 1000 + num, samples)
    passed = all(r.passed for r in results)
    record_criterion(num, passed, "; ".join(f"{r.name}: {r.detail}" for r in results))
    assert passed, [r for r in results if not r.passed]


def test_registry_reaches_every_check_and_names_each_once():
    suites = list(verify.SUITE_CHECKS.values())
    criteria = [names for names, _ in CRITERIA.values()]
    for names in suites + criteria:
        assert len(names) == len(set(names))
        assert set(names) <= set(verify._CHECKS)
    in_suites = [name for names in suites for name in names]
    assert len(in_suites) == len(set(in_suites))  # no check runs twice in --suite all
    assert {name for names in suites + criteria for name in names} == set(verify._CHECKS)
    with pytest.raises(ValueError):
        verify._check("pair validity")


def test_criterion_01_embedding_algebra():
    _criterion(1)


def test_criterion_02_takagi_and_underline_eigs():
    _criterion(2)


def test_criterion_03_validity_oracle():
    _criterion(3)


def test_criterion_04_entropy_closed_forms():
    _criterion(4)


def test_criterion_05_entropy_sandwich():
    _criterion(5)


def test_criterion_06_divergence_to_analog():
    # the quadrature oracle pinned by a second route
    assert abs(verify._divergence_quadrature(0.8) - 0.4676188675) <= 1e-6
    _criterion(6)


def test_criterion_07_capacity_worked_and_randomized():
    _criterion(7)


def test_criterion_08_capacity_loss():
    _criterion(8)


def test_criterion_09_circular_input_optimality():
    _criterion(9)


def test_criterion_10_transforms():
    _criterion(10)
