"""Scale laws at the ends of float range.

Under x -> a x an entropy shifts by n log|a|^2 (2n log|a| in the 2n real
dimensions), while the divergence to the circular analog and the capacity
do not change. Each case sits where a square, a product or a sum of raw
entries would leave float range; every case runs with warnings as errors.
"""

import numpy as np
import pytest

from improper import analog, capacity, entropy, linalg, second_order as so

pytestmark = pytest.mark.filterwarnings("error")


def test_estimates_follow_the_scale_laws_at_every_scale():
    h = entropy.real_gaussian_entropy(1e308 * np.eye(2)).value
    assert h == pytest.approx(712.0340857085754, rel=1e-12)
    np.testing.assert_array_equal(linalg.takagi(1e308 * np.eye(2)).sigma, [1e308, 1e308])
    # C = S11 + S22 = 1e308 I has a float (2e308 has none: DomainError, in test_second_order)
    made = so.pair_from_real_covariance(0.5e308 * np.eye(4))
    np.testing.assert_array_equal(made.cov, 1e308 * np.eye(2))
    np.testing.assert_array_equal(made.pcov, np.zeros((2, 2)))
    # the threshold 2n ||g|| = 2e308 lies beyond the float maximum, above the budget
    spec = capacity.ChannelSpec(h=np.eye(2), noise=so.SecondOrderPair.proper(5e307 * np.eye(2)),
                                power=1.7e308)
    assert capacity.HIGH_SNR in [v.name for v in capacity.check_assumptions(spec)]

    pair = so.SecondOrderPair(cov=[[2.0, 0.5j], [-0.5j, 1.0]], pcov=[[1.2, 0.3], [0.3, -0.4j]])
    x = so.sample_gaussian(pair, 2000, seed=91)
    d = analog.divergence_to_analog(x)
    assert d > 0.05
    for a in (4.0, 10.0, 2.0 ** 100, 1e-200):
        assert abs(analog.divergence_to_analog(so.SampleSet(data=a * x.data)) - d) <= 1e-12, a

    q = so.sample_gaussian(so.SecondOrderPair.proper(pair.cov), 2000, seed=92)
    h, kl = entropy.knn_entropy(x).value, entropy.knn_kl_divergence(x, q)
    assert kl > 0.05
    for k in (150, -150, 500, -500):
        a = 4.0 ** k
        want = h + 4 * np.log(a)
        got = entropy.knn_entropy(so.SampleSet(data=a * x.data)).value
        assert abs(got - want) <= 1e-12 * abs(want), k
        got = entropy.knn_kl_divergence(so.SampleSet(data=a * x.data),
                                        so.SampleSet(data=a * q.data))
        assert abs(got - kl) <= 1e-12 * kl, k


def test_a_referred_noise_beyond_float_range_is_below_the_high_snr_threshold():
    # g = H^-1 C_z H^-H = 1e320 I overflows; every budget lies below its threshold
    spec = capacity.ChannelSpec(h=1e-160 * np.eye(2), noise=so.SecondOrderPair.proper(np.eye(2)),
                                power=1.0)
    v, = capacity.check_assumptions(spec)
    assert (v.name, v.measured, v.threshold) == (capacity.HIGH_SNR, 1.0, np.inf)
