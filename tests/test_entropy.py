import numpy as np
import pytest

from conftest import SCALES
from improper import entropy, second_order as so, verify
from improper.errors import (
    DimensionMismatch,
    InvalidPair,
    NotPositiveDefinite,
    SpectrumAtOne,
    TiedSamples,
    TooFewSamples,
)

LOG_PI_E = np.log(np.pi * np.e)


def scalar_pair(lam):
    return so.SecondOrderPair(cov=np.eye(1), pcov=np.array([[lam]], dtype=complex))


def test_real_gaussian_entropy_identity_cov():
    h = entropy.real_gaussian_entropy(np.eye(2))
    assert h.value == pytest.approx(np.log(2 * np.pi * np.e), abs=1e-14)
    assert h.method == entropy.CLOSED_FORM
    assert h.stderr is None


def test_real_gaussian_entropy_rejects():
    with pytest.raises(NotPositiveDefinite):
        entropy.real_gaussian_entropy(np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefinite):
        entropy.real_gaussian_entropy(np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", SCALES)
def test_real_gaussian_entropy_positivity_is_scale_free(scale):
    h = entropy.real_gaussian_entropy(scale * np.eye(4))
    assert h.value == pytest.approx(2.0 * np.log(2.0 * np.pi * np.e * scale), rel=1e-12)
    with pytest.raises(NotPositiveDefinite):
        entropy.real_gaussian_entropy(scale * np.diag([1.0, 1e-13]))


def test_real_gaussian_entropy_rejects_empty():
    with pytest.raises(DimensionMismatch):
        entropy.real_gaussian_entropy(np.zeros((0, 0)))


def test_neeser_massey_rejects_empty():
    with pytest.raises(DimensionMismatch):
        entropy.neeser_massey_bound(np.zeros((0, 0)))


def test_neeser_massey_from_pair_equals_matrix_route():
    rng = np.random.default_rng(41)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = g @ g.conj().T + 0.1 * np.eye(3)
    pair = so.SecondOrderPair(cov=c, pcov=np.zeros((3, 3)))
    assert entropy.neeser_massey_bound(pair).value == entropy.neeser_massey_bound(c).value


def test_neeser_massey_scalar():
    b = entropy.neeser_massey_bound(np.eye(1))
    assert b.value == pytest.approx(LOG_PI_E, abs=0.0)
    with pytest.raises(NotPositiveDefinite):
        entropy.neeser_massey_bound(np.zeros((1, 1)))


def test_complex_gaussian_entropy_scalar_exact():
    assert entropy.complex_gaussian_entropy(scalar_pair(0.0)).value == pytest.approx(
        LOG_PI_E, abs=5e-15)
    assert entropy.complex_gaussian_entropy(scalar_pair(0.8)).value == pytest.approx(
        LOG_PI_E + 0.5 * np.log(1 - 0.64), abs=5e-15)
    # frozen reference value for the lambda = 0.8 scalar pair
    assert entropy.complex_gaussian_entropy(scalar_pair(0.8)).value == pytest.approx(
        1.633904262083409, abs=1e-12)


def test_complex_gaussian_entropy_matches_real_route():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = g @ g.conj().T + 0.1 * np.eye(n)
        b = np.linalg.cholesky(c)
        lams = 0.9 * rng.random(n)
        q = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        p = b @ (q * lams) @ q.T @ b.T
        pair = so.SecondOrderPair(cov=c, pcov=0.5 * (p + p.T))
        h_complex = entropy.complex_gaussian_entropy(pair).value
        h_real = entropy.real_gaussian_entropy(so.real_covariance(pair)).value
        assert h_complex == pytest.approx(h_real, abs=1e-9)


def test_complex_gaussian_entropy_rejections():
    with pytest.raises(SpectrumAtOne):
        entropy.complex_gaussian_entropy(scalar_pair(1.0))
    with pytest.raises(InvalidPair):
        entropy.complex_gaussian_entropy(scalar_pair(1.5))


def test_knn_entropy_circular_gaussian():
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 20_000, seed=61)
    h = entropy.knn_entropy(x)
    assert h.method == entropy.KNN_ESTIMATE
    assert h.value == pytest.approx(LOG_PI_E, abs=0.05)
    assert h.stderr is not None and 0 < h.stderr < 0.05


def test_knn_entropy_uniform_square():
    # Re and Im independent U[0,1): h = 0
    rng = np.random.default_rng(62)
    x = so.SampleSet(data=(rng.random(20_000) + 1j * rng.random(20_000))[:, None], seed=0)
    assert entropy.knn_entropy(x).value == pytest.approx(0.0, abs=0.05)


def test_knn_entropy_scaling_law():
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 20_000, seed=63)
    doubled = so.SampleSet(data=2.0 * x.data, seed=0)
    shift = entropy.knn_entropy(doubled).value - entropy.knn_entropy(x).value
    assert shift == pytest.approx(2 * np.log(2), abs=0.05)


def test_knn_entropy_too_few():
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 300, seed=64)
    with pytest.raises(TooFewSamples):
        entropy.knn_entropy(x)


def test_knn_kl_identical_distributions():
    pair = so.SecondOrderPair.proper(np.eye(1))
    a = so.sample_gaussian(pair, 20_000, seed=65)
    b = so.sample_gaussian(pair, 20_000, seed=66)
    assert entropy.knn_kl_divergence(a, b) <= 0.05


def test_knn_kl_gaussian_closed_form():
    # D(CN(0,1) || CN(0,2)) = log 2 - 1/2
    a = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 20_000, seed=67)
    b = so.sample_gaussian(so.SecondOrderPair.proper(2 * np.eye(1)), 20_000, seed=68)
    d = entropy.knn_kl_divergence(a, b)
    assert d == pytest.approx(np.log(2) - 0.5, abs=0.07)


def test_knn_kl_requirements():
    a = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 1000, seed=69)
    b = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(2)), 1000, seed=70)
    with pytest.raises(DimensionMismatch):
        entropy.knn_kl_divergence(a, b)
    small = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 300, seed=71)
    with pytest.raises(TooFewSamples):
        entropy.knn_kl_divergence(a, small)
    assert entropy.knn_kl_divergence(a, so.SampleSet(data=a.data.copy(), seed=1)) >= 0.0


def test_entropy_bounds_on_samples():
    # estimator below both closed-form bounds, pair bound the tighter one
    pair = so.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.8]]))
    x = so.sample_gaussian(pair, 20_000, seed=72)
    h = entropy.knn_entropy(x)
    emp = so.empirical_pair(x)
    nm = entropy.neeser_massey_bound(emp.cov).value
    me = entropy.complex_gaussian_entropy(emp).value
    assert h.value <= nm + 3 * h.stderr
    assert h.value <= me + 3 * h.stderr
    assert me < nm


def test_knn_entropy_rejects_tied_samples():
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 100, seed=73)
    repeated = so.SampleSet(data=np.repeat(x.data, 10, axis=0), seed=0)
    with pytest.raises(TiedSamples, match="1000 of 1000 points tied") as info:
        entropy.knn_entropy(repeated)
    assert (info.value.tied, info.value.count) == (1000, 1000)
    # one point repeated 5 times: its k + 1 = 5 copies tie, the rest do not
    y = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 1000, seed=74)
    few = so.SampleSet(data=np.concatenate([y.data, np.repeat(y.data[:1], 4, axis=0)]), seed=0)
    with pytest.raises(TiedSamples, match="5 of 1004 points tied"):
        entropy.knn_entropy(few)


def test_knn_kl_rejects_tied_samples():
    pair = so.SecondOrderPair.proper(np.eye(1))
    a = so.sample_gaussian(pair, 1000, seed=75)
    b = so.sample_gaussian(pair, 1000, seed=76)
    repeated = so.SampleSet(data=np.repeat(a.data[:100], 10, axis=0), seed=0)
    with pytest.raises(TiedSamples, match="within p"):
        entropy.knn_kl_divergence(repeated, b)
    # every p-point has k = 4 copies in q, so its k-th distance into q is 0
    copies = so.SampleSet(data=np.repeat(a.data, 4, axis=0), seed=0)
    with pytest.raises(TiedSamples, match="1000 of 1000 points tied.*into q"):
        entropy.knn_kl_divergence(a, copies)


@pytest.mark.parametrize("periodic", [False, True])
def test_kth_distance_matches_plain_query_in_any_order(periodic):
    rng = np.random.default_rng(77)
    count = 600
    for d in range(1, 13):
        # periodic: the first half of the coordinates open, the rest on [0, 1)
        # circles, as divergence_to_analog queries its sheared coordinates
        if periodic:
            box = np.concatenate([np.zeros(d // 2), np.ones(d - d // 2)])
            points = np.where(box > 0, rng.random((count, d)), rng.standard_normal((count, d)))
        else:
            box = None
            points = rng.standard_normal((count, d))
        tree = entropy.cKDTree(points, boxsize=box)
        orders = (entropy._spatial_order(points), rng.permutation(count), np.arange(count))
        for k in (1, 4):
            plain = tree.query(points, k=k + 1)[0][:, k]
            for order in orders:
                got = entropy._kth_distance(tree, points, k + 1, order)
                assert np.array_equal(got, plain), (d, k)


def test_spatial_order_is_a_permutation():
    rng = np.random.default_rng(78)
    cases = [
        rng.standard_normal((1, 3)),
        np.full((50, 4), 2.5),
        np.column_stack([rng.random(50), np.zeros(50)]),
        rng.standard_normal((200, 70)),
    ]
    for points in cases:
        order = entropy._spatial_order(points)
        assert np.array_equal(np.sort(order), np.arange(points.shape[0]))


def test_spatial_order_follows_the_z_curve():
    corners = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert entropy._spatial_order(corners).tolist() == [1, 3, 2, 0]


def test_entropy_verify_suite_passes():
    results = verify.run_suite("entropy", 2026, 100_000)
    assert len(results) == 10
    assert [r for r in results if not r.passed] == []
