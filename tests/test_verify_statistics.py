"""The verify statistics against scipy.stats, used here as a test-only oracle.

verify computes its Kolmogorov-Smirnov and kurtosis statistics on numpy and
scipy.special alone. The distances and the kurtosis must equal scipy.stats'
bit for bit; the two-sample p-value must equal ks_2samp's wherever its
exact regimes apply (equal halves of at most 10000, or en D^2 >= 2.2 with
en = round(m n / (m + n))), and give the same verdict at 0.01 elsewhere,
except for unequal halves of at most 10000, which take the asymptotic
branch in place of scipy's exact path count.
"""

import numpy as np
from scipy import stats

from improper import verify

# (size of a, size of b, pairs): equal halves on the exact path count, unequal
# small halves on the asymptotic branch, and halves above 10000
SIZES = [(200, 200, 800), (1000, 1000, 500), (5000, 5000, 80), (201, 200, 500),
         (12_000, 12_000, 100), (15_001, 15_000, 40)]


def _pairs():
    rng = np.random.default_rng(20_111)
    for n1, n2, count in SIZES:
        en = round(n1 * n2 / (n1 + n2))
        for i in range(count):
            # every other pair shifted by up to 6 / sqrt(en): p from about 1 down to 1e-7
            shift = rng.uniform(0.0, 6.0) / np.sqrt(en) if i % 2 else 0.0
            a, b = rng.standard_normal(n1), rng.standard_normal(n2) + shift
            if i % 5 == 0:  # tied values
                a, b = np.round(a, 2), np.round(b, 2)
            yield a, b


def test_ks_two_sample_matches_scipy():
    checked, exact, tails = 0, 0, {}
    for a, b in _pairs():
        d, p = verify._ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b)
        n1, n2 = len(a), len(b)
        large = max(n1, n2) > 10_000
        # scipy's exact path reports D rounded to h / lcm; method="asymp" reports it as computed
        assert d == (ref if large else stats.ks_2samp(a, b, method="asymp")).statistic
        en = round(n1 * n2 / (n1 + n2))
        if n1 == n2 <= 10_000 or (large and en * d * d >= 2.2):
            assert p == ref.pvalue, (n1, n2, d, p, ref.pvalue)
            exact += 1
        elif large:
            assert (p < 0.01) == (ref.pvalue < 0.01), (n1, n2, d, p, ref.pvalue)
        tails[n1] = tails.get(n1, 0) + (p < 0.01)
        checked += 1
    assert checked == sum(count for _, _, count in SIZES) >= 1900
    assert exact >= 1300
    assert all(tails[n1] >= 5 for n1, _, _ in SIZES), tails


def test_ks_two_sample_separated_and_identical_samples():
    x = np.linspace(0.0, 1.0, 20_001)
    assert verify._ks_two_sample(x, x) == (0.0, 1.0)
    assert verify._ks_two_sample(x[:500], x[500:1000]) == (1.0, stats.ks_2samp(
        x[:500], x[500:1000]).pvalue)
    assert verify._ks_two_sample(x[:15_000], x[15_000:] + 1.0)[1] == 0.0


def test_uniform_distance_and_kurtosis_match_scipy():
    rng = np.random.default_rng(20_112)
    for n, count in ((50, 20), (2000, 20), (100_000, 4)):
        for _ in range(count):
            u = rng.random(n) ** rng.uniform(0.9, 1.1)
            assert verify._ks_uniform_distance(u) == stats.kstest(u, "uniform").statistic
            z = rng.standard_normal((n, 2)) @ rng.standard_normal((2, 2))
            v = (z[:, 0] + 1j * z[:, 1]) * np.exp(2j * np.pi * rng.random(n))
            # a strided column, as verify passes it
            assert verify._excess_kurtosis(v.real) == stats.kurtosis(v.real)
