"""Mutant table: each registered check must catch the fault it was written for.

An entry rewrites one exact source line of one library function, runs the
named registered checks at a fixed seed and sample size, and expects at least
one of their results to fail (the result line named in ``line``, where one
is named); the same checks must pass on the unmutated code.
The mutant is compiled from ``inspect.getsource`` into a copy of the module's
globals and swapped in with monkeypatch, so every caller that looks the
function up in its module runs it, and it is gone after the test.

A check that reads a solve cached on a module-level object (verify._SCALAR,
verify._IMPROPER_NOISE, and the pairs' factorizations) would not run the
mutant; the channel mutants are therefore caught by a check that builds fresh
specs, and no check here caches a mutated result on such an object. The
factorization memos (linalg._memo) would likewise hand the mutated run the
clean run's factorization of the same seeded matrices, so they are emptied
between the two runs.
"""

import __future__
import inspect
import textwrap
from dataclasses import dataclass

import pytest

from improper import analog, capacity, entropy, linalg, second_order, verify


@dataclass(frozen=True)
class Mutant:
    module: object
    function: str
    original: str
    replacement: str
    checks: tuple
    seed: int
    samples: int
    line: str | None = None


MUTANTS = {
    "kl-digamma-k-plus-one": Mutant(
        entropy, "_search_points",
        "terms = digamma(n) - digamma(k) + _unit_ball_log_volume(d) + d * log_rho",
        "terms = digamma(n) - digamma(k + 1) + _unit_ball_log_volume(d) + d * log_rho",
        ("circular Gaussian kNN entropy",), 1, 20_000),
    "sorted-search-window-off-by-one": Mutant(
        entropy, "_sorted_kth_distance",
        "right = padded[2 * k - j:2 * k - j + n] - v",
        "right = padded[2 * k - j - 1:2 * k - j - 1 + n] - v",
        ("improper Gaussian divergence",), 1, 20_000),
    "cross-query-k-plus-one": Mutant(
        entropy, "knn_kl_divergence",
        "nu = _kth_distance(_tree(y)[0], x[search.order], k, search.order)",
        "nu = _kth_distance(_tree(y)[0], x[search.order], k + 1, search.order)",
        ("kNN divergence",), 1, 20_000, "kNN divergence of identical distributions"),
    "gaussian-entropy-quarter-correction": Mutant(
        entropy, "_gaussian_entropy",
        "+ 0.5 * float(np.log1p(-(lambdas**2)).sum()))",
        "+ 0.25 * float(np.log1p(-(lambdas**2)).sum()))",
        ("Gaussian closed forms",), 1, 1000, "complex vs real Gaussian closed forms"),
    "input-pcov-zero": Mutant(
        capacity, "_factor_channel",
        "p_x = -h_inv @ spec.noise.pcov @ h_inv.T",
        "p_x = 0.0 * h_inv",
        ("random admissible specs",), 1, 1000),
    "input-pcov-sign-flip": Mutant(
        capacity, "_factor_channel",
        "p_x = -h_inv @ spec.noise.pcov @ h_inv.T",
        "p_x = +h_inv @ spec.noise.pcov @ h_inv.T",
        ("random admissible specs",), 1, 1000, "solved input achieves capacity"),
    "input-pcov-conj-transpose": Mutant(
        capacity, "_factor_channel",
        "p_x = -h_inv @ spec.noise.pcov @ h_inv.T",
        "p_x = -h_inv @ spec.noise.pcov @ h_inv.conj().T",
        ("random admissible specs",), 1, 1000, "solved input achieves capacity"),
    "capacity-without-improperness-bonus": Mutant(
        capacity, "_factor_channel",
        "capacity = h_y - complex_gaussian_entropy(spec.noise).value",
        "capacity = h_y - complex_gaussian_entropy("
        "second_order.SecondOrderPair.proper(spec.noise.cov)).value",
        ("capacity in power and noise",), 1, 1000,
        "improper noise raises capacity by the closed-form bonus"),
    "high-snr-threshold-without-factor-two": Mutant(
        capacity, "_factor_channel",
        "spec.power / (2.0 * n)",
        "spec.power / n",
        ("high-SNR threshold",), 1, 1000, "HIGH_SNR flagged exactly below the threshold"),
    "loss-halved": Mutant(
        capacity, "capacity_loss",
        "delta = -0.5 * float(np.log1p(-(mus**2)).sum()) + 0.0",
        "delta = -0.25 * float(np.log1p(-(mus**2)).sum()) + 0.0",
        ("random admissible specs",), 1, 1000),
    "half-circle-phase": Mutant(
        analog, "circularize",
        "psi = rng.random(samples.count)",
        "psi = 0.5 * rng.random(samples.count)",
        ("circularized 3-PSK has no odd moments",), 1, 10_000),
    "ks-uniform-distance-unsorted": Mutant(
        verify, "_ks_uniform_distance",
        "u = np.sort(u)",
        "u = np.asarray(u)",
        ("circular analog of improper Gaussian",), 1, 2000),
    "analog-phase-short-of-a-turn": Mutant(
        analog, "circularize",
        "psi = rng.random(samples.count)",
        "psi = 0.97 * rng.random(samples.count)",
        ("circular analog of improper Gaussian",), 1, 100_000,
        "circularize erases complementary covariance"),
    "coherence-svd-of-p": Mutant(
        second_order, "_factor_pairs",
        "lambdas = np.linalg.svd(m, compute_uv=False)",
        "lambdas = np.linalg.svd(p, compute_uv=False)",
        ("real covariance identities",), 1, 1000),
    "singular-c-accepted": Mutant(
        second_order, "_factor_pairs",
        "pos = d[:, -1] > zero",
        "pos = d[:, -1] >= negative",
        ("pair validity",), 1, 1000, "pair validity matches PSD oracle"),
    "takagi-without-qr": Mutant(
        linalg, "_takagi",
        "q = np.linalg.qr(top[:n] + 1j * top[n:])[0]",
        "q = top[:n] + 1j * top[n:]",
        ("takagi factorization",), 1, 1000),
}

# Registered checks no mutant is caught by yet; a new check goes into MUTANTS or here
WITHOUT_MUTANT = (
    "Bessel I0", "analog Gaussian density", "circular Gaussian divergence",
    "circular competitor divergence", "circularized BPSK input", "circularized improper inputs",
    "degenerate radius", "embedding identities", "improper Gaussian kNN entropy",
    "mixture entropy gap", "polar density integral", "scalar power split",
    "transform round trips", "worked capacity examples",
)


def _mutated(m: Mutant):
    """The function m names, with its one line replaced, bound to the module's globals."""
    source = textwrap.dedent(inspect.getsource(getattr(m.module, m.function)))
    assert source.count(m.original) == 1, f"{m.original!r} is not one line of {m.function}"
    namespace = dict(vars(m.module))
    code = compile(source.replace(m.original, m.replacement), inspect.getsourcefile(m.module),
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[m.function]


@pytest.mark.parametrize("name", MUTANTS)
def test_registered_checks_catch_the_mutant(name, monkeypatch):
    m = MUTANTS[name]
    clean = verify._run_checks(m.checks, m.seed, m.samples)
    assert all(r.passed for r in clean), [r.detail for r in clean if not r.passed]
    for memo in linalg._MEMOS:
        memo.cache_clear()
    monkeypatch.setattr(m.module, m.function, _mutated(m))
    caught = [r for r in verify._run_checks(m.checks, m.seed, m.samples) if not r.passed]
    assert caught, f"{name} passed {m.checks}"
    if m.line is not None:
        assert m.line in [r.name for r in caught], f"{name} passed {m.line!r}"


def test_every_registered_check_has_a_mutant_or_is_listed_without_one():
    with_mutant = {check for m in MUTANTS.values() for check in m.checks}
    assert len(set(WITHOUT_MUTANT)) == len(WITHOUT_MUTANT)
    assert with_mutant.isdisjoint(WITHOUT_MUTANT)
    assert with_mutant | set(WITHOUT_MUTANT) == set(verify._CHECKS)
