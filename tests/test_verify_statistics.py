"""The verify statistics against scipy.stats, used here as a test-only oracle.

verify computes its uniform Kolmogorov-Smirnov distance and its kurtosis on
numpy alone. Both must equal scipy.stats' bit for bit.
"""

import numpy as np
from scipy import stats

from improper import verify


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
