import warnings

import numpy as np
import pytest

from conftest import SCALES
from improper import analog, entropy, linalg, second_order as so, verify
from improper.errors import (
    DegenerateConditional,
    DimensionMismatch,
    DomainError,
    InvalidPair,
    NotPositiveDefinite,
    NotSymmetric,
    SpectrumAtOne,
    TiedSamples,
    TooFewSamples,
)
from test_lazy_scipy import run_python

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
    with pytest.raises(NotSymmetric):
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


def test_closed_forms_past_the_overflow_of_pi_e_x():
    # pi e x overflows from about 2.1e307: there the logarithm is of 2^-s x, plus s log 2
    for scale in (3e307, 1e308, 1.7e308, 1e-310):
        bound = entropy.neeser_massey_bound(scale * np.eye(2)).value
        assert bound == pytest.approx(2 * (LOG_PI_E + np.log(scale)), rel=1e-15), scale
        h = entropy.complex_gaussian_entropy(
            so.SecondOrderPair(cov=scale * np.eye(2), pcov=0.5 * scale * np.eye(2))).value
        assert h == pytest.approx(bound + np.log(0.75), rel=1e-15), scale
    # within range the value is np.log(pi e d) summed, bit for bit
    g = np.random.default_rng(5).standard_normal((3, 3))
    c = g @ g.T + np.eye(3)
    _, d = linalg.hermitian_eig(c)
    assert entropy.neeser_massey_bound(c).value == float(np.sum(np.log(np.pi * np.e * d)))

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
        pair, = so._factored_pairs(
            *verify._random_pair_stack(rng, int(rng.integers(1, 6)), [0.9], exact_max=False))
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


def test_knn_entropy_stderr_does_not_depend_on_row_order():
    # two components stored one after the other, then the same rows shuffled
    n = 100_000
    other = so.SecondOrderPair(cov=0.5 * np.eye(1), pcov=np.array([[-0.3]], dtype=complex))
    data = np.concatenate([so.sample_gaussian(scalar_pair(0.8), n // 2, seed=31).data,
                           so.sample_gaussian(other, n // 2, seed=32).data])
    shuffled = data[np.random.default_rng(33).permutation(n)]
    blocks = entropy.knn_entropy(so.SampleSet(data=data, seed=0))
    mixed = entropy.knn_entropy(so.SampleSet(data=shuffled, seed=0))
    assert blocks.value == pytest.approx(mixed.value, abs=1e-12)
    assert blocks.stderr == pytest.approx(mixed.stderr, rel=1e-9)


def test_knn_entropy_stderr_matches_the_spread_across_seeds():
    # the reported stderr is the one every 3se allowance in verify rests on:
    # 30 seeded estimates must scatter as much as it says (the ratio reads
    # about 1.0-1.2; a stderr five times too wide reads about 0.2)
    pair = scalar_pair(0.8)
    est = [entropy.knn_entropy(so.sample_gaussian(pair, 10_000, seed), 4) for seed in range(30)]
    spread = np.std([e.value for e in est], ddof=1)
    assert 0.5 <= spread / np.mean([e.stderr for e in est]) <= 2.0


def test_knn_entropy_too_few():
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 300, seed=64)
    with pytest.raises(TooFewSamples):
        entropy.knn_entropy(x)


ESTIMATORS = {"knn_entropy": entropy.knn_entropy,
              "knn_kl_divergence": lambda x, k: entropy.knn_kl_divergence(x, x, k),
              "divergence_to_analog": analog.divergence_to_analog}


@pytest.mark.parametrize("k", [0, 1.5, True])
@pytest.mark.parametrize("estimator", list(ESTIMATORS))
def test_estimators_reject_a_k_that_is_not_a_positive_integer(estimator, k):
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 500, seed=62)
    with pytest.raises(DomainError, match="k must be an integer >= 1") as err:
        ESTIMATORS[estimator](x, k)
    assert type(err.value) is DomainError  # not TiedSamples, and no estimate


def test_negative_k_is_rejected_before_the_tree_query(tmp_path):
    # a fresh interpreter, since the kd-tree query given k = 0 can crash the process
    out = run_python("""
        import numpy as np
        from improper import entropy, second_order as so
        from improper.errors import DomainError

        x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 500, seed=63)
        for call in (lambda: entropy.knn_entropy(x, k=-1),
                     lambda: entropy.knn_kl_divergence(x, x, k=-1)):
            try:
                call()
            except DomainError as exc:
                print(type(exc).__name__, exc)
        """, cwd=tmp_path)
    assert out.splitlines() == ["DomainError k must be an integer >= 1, got -1"] * 2


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


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
def test_knn_estimates_shift_exactly_at_extreme_scales(scale):
    # squared distances overflow beyond about 1e154 and lose bits below 1e-154:
    # unscaled, these read inf, 1.4e-3 off and TiedSamples
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(2)), 1000, seed=86)
    p = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 2000, seed=87)
    q = so.sample_gaussian(so.SecondOrderPair.proper(2.0 * np.eye(1)), 2000, seed=88)
    h, d = entropy.knn_entropy(x), entropy.knn_kl_divergence(p, q)
    assert d > 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h_scaled = entropy.knn_entropy(so.SampleSet(data=scale * x.data, seed=0))
        d_scaled = entropy.knn_kl_divergence(so.SampleSet(data=scale * p.data, seed=0),
                                             so.SampleSet(data=scale * q.data, seed=0))
    want = h.value + 4 * np.log(scale)
    assert abs(h_scaled.value - want) <= 1e-12 * (1 + abs(want))
    assert abs(h_scaled.stderr - h.stderr) <= 1e-12 * (1 + h.stderr)
    assert abs(d_scaled - d) <= 1e-12 * (1 + d)


def _layout_points(rng, count, d, periodic):
    # periodic: the first half of the coordinates open, the rest on [0, 1)
    # circles, as divergence_to_analog searches its sheared coordinates
    if not periodic:
        return rng.standard_normal((count, d)), None
    box = np.concatenate([np.zeros(d // 2), np.ones(d - d // 2)])
    return np.where(box > 0, rng.random((count, d)), rng.standard_normal((count, d))), box


@pytest.mark.parametrize("periodic", [False, True])
def test_kth_distance_matches_plain_query_in_any_order(periodic):
    rng = np.random.default_rng(77)
    count = 600
    for d in range(1, 13):
        points, box = _layout_points(rng, count, d, periodic)
        tree = entropy.cKDTree(points, boxsize=box)
        orders = (tree.indices, rng.permutation(count), np.arange(count))
        for k in (1, 4):
            plain = tree.query(points, k=k + 1)[0][:, k]
            for order in orders:
                got = entropy._kth_distance(tree, points[order], k + 1, order)
                assert np.array_equal(got, plain), (d, k)


def test_entropy_verify_suite_passes():
    results = verify.run_suite("entropy", 2026, 100_000)
    assert len(results) == 11
    assert [r for r in results if not r.passed] == []


def _plain_rho(points, k, box=None):
    """Each point's distance to its k-th nearest other point, from one plain cKDTree query."""
    return entropy.cKDTree(points, boxsize=box).query(points, k=k + 1)[0][:, k]


def _plain_search(points, k, box=None):
    """(value, stderr, mean log rho, ties) elementwise from _plain_rho."""
    from scipy.special import digamma

    n, d = points.shape
    rho = _plain_rho(points, k, box)
    ties = int(np.count_nonzero(rho == 0.0))
    if ties:
        return np.nan, np.nan, np.nan, ties
    log_rho = np.log(rho)
    terms = digamma(n) - digamma(k) + entropy._unit_ball_log_volume(d) + d * log_rho
    return float(terms.mean()), float(terms.std(ddof=1) / np.sqrt(n)), float(log_rho.mean()), 0


@pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
@pytest.mark.parametrize("d", range(1, 13))
def test_search_points_has_the_bits_of_a_plain_query_in_every_layout(d, periodic):
    rng = np.random.default_rng([79, d, periodic])
    points, box = _layout_points(rng, 3000, d, periodic)
    tied = np.concatenate([points, np.repeat(points[:7], 4, axis=0)])  # 7 x 5 copies at k = 4
    for sample, k in ((points, 1), (points, 4), (tied, 4)):
        # each point's distance, in sample order, and the scalars the search keeps
        tree, order, rows = entropy._tree(sample, box)
        assert rows.tobytes() == sample[order].tobytes()
        queried = rows if d >= entropy._LEAF_ORDER_MIN_DIM else sample
        assert tree.data.tobytes() == queried.tobytes()
        rho, visited = entropy._kth_other_distance(sample, k, box)
        assert rho.tobytes() == _plain_rho(sample, k, box).tobytes()
        got = entropy._search_points(sample, k, box)
        want = _plain_search(sample, k, box)
        assert (got.count, got.dim) == sample.shape
        # the search keeps the permutation it visited, sealed
        assert np.array_equal(got.order, visited)
        assert np.array_equal(np.sort(visited), np.arange(len(sample)))
        assert not got.order.flags.writeable
        np.testing.assert_array_equal([got.value, got.stderr, got.mean_log_rho, got.ties], want)
    assert want[3] == 35  # the tied set's search


SORTED_SETS = {
    "gaussian": lambda rng: rng.standard_normal(3000),
    # up to 6 copies of a value: ties up to k = 5
    "repeats": lambda rng: np.repeat(rng.standard_normal(600), rng.integers(1, 7, 600)),
    # |x| from 1e-170 to 1e200: diff**2 underflows to 0 (a tie) and overflows to inf
    "extreme": lambda rng: rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-170, 200, 3000),
}


@pytest.mark.parametrize("name", SORTED_SETS)
def test_sorted_search_has_the_bits_of_a_plain_query(name):
    values = SORTED_SETS[name](np.random.default_rng([83, list(SORTED_SETS).index(name)]))
    points = values[:, None]
    ties = []
    for k in range(1, 9):
        dist, order = entropy._sorted_kth_distance(values, k)
        assert dist.tobytes() == _plain_rho(points, k).tobytes()
        assert np.array_equal(order, np.argsort(values, kind="stable"))
        got = entropy._search_points(points, k)
        want = _plain_search(points, k)
        np.testing.assert_array_equal([got.value, got.stderr, got.mean_log_rho, got.ties], want)
        if got.ties:
            with pytest.raises(TiedSamples, match=f"^{got.ties} of {values.size} points tied"):
                entropy._knn_entropy_points(points, k)
        ties.append(got.ties)
    assert (name == "gaussian") == (max(ties) == 0)
    if name == "repeats":
        assert ties[4] > 0 and max(ties[5:]) == 0


def test_divergence_to_analog_at_n_1_has_the_bits_of_plain_queries():
    x = so.sample_gaussian(scalar_pair(0.8), 3000, seed=84)
    coords = analog._sheared_coordinates(x)
    h_joint = _plain_search(coords, 4, np.array([0.0, 1.0]))[0]
    h_reduced = _plain_search(coords[:, :1], 4)[0]
    assert analog.divergence_to_analog(x) == max(0.0, h_reduced - h_joint) > 0.1


def test_a_degenerate_radius_names_the_ties_of_a_plain_query():
    rng = np.random.default_rng(85)
    ring = so.SampleSet(data=np.exp(2j * np.pi * rng.random(2000))[:, None], seed=0)
    ties = _plain_search(analog._sheared_coordinates(ring)[:, :1], 4)[3]
    assert ties > 0
    with pytest.raises(DegenerateConditional) as info:
        analog.divergence_to_analog(ring)
    assert str(info.value) == (
        f"reduced representation is degenerate ({ties} of 2000 points tied: k-th neighbor "
        "distance (k=4) is 0); the phase distribution appears to be a point mass")


@pytest.mark.parametrize("n", [1, 4, 5])
def test_knn_kl_divergence_has_the_bits_of_plain_queries(monkeypatch, n):
    p = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(n)), 3000, seed=80)
    q = so.sample_gaussian(so.SecondOrderPair.proper(2.0 * np.eye(n)), 3500, seed=81)
    x, y = linalg.real_vector(p.data), linalg.real_vector(q.data)
    mean_log_rho = _plain_search(x, 4)[2]
    nu = entropy.cKDTree(y).query(x, k=4)[0][:, 3]
    want = 2 * n * (float(np.log(nu).mean()) - mean_log_rho) + np.log(3500 / 2999)
    assert want > 0.1
    for leaf_order in (True, False):  # a tree class with and without indices
        _counting_tree(monkeypatch, leaf_order)
        fresh = so.SampleSet(data=p.data, seed=80)  # p searched by this class
        assert entropy.knn_kl_divergence(fresh, q) == want


def _counting_tree(monkeypatch, leaf_order=True):
    """Make the estimators build with a kd-tree class that records each build's
    (size, leaf size, other keywords) and each query's size; it exposes the
    wrapped tree's leaf order only when leaf_order. Returns (builds, queried)."""
    from scipy.spatial import cKDTree

    builds, queried = [], []

    class Tree:
        def __init__(self, data, leafsize=16, boxsize=None, **kwargs):
            builds.append((len(data), leafsize, kwargs))
            self._tree = cKDTree(data, leafsize, boxsize=boxsize, **kwargs)
            if leaf_order:
                self.indices = self._tree.indices

        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return self._tree.query(x, *args, **kwargs)

    monkeypatch.setattr(entropy, "cKDTree", Tree)
    return builds, queried


def test_a_divergence_from_a_searched_set_builds_only_q_trees(monkeypatch):
    # p's points go into q's tree once, in the order p's cached search kept
    builds, queried = _counting_tree(monkeypatch)
    for n, q_trees in ((2, [(3500, 16, {})]),
                       (4, [(3500, 16, {}), (3500, entropy._LEAF_ORDER_LEAFSIZE, {})])):
        p = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(n)), 3000, seed=80)
        q = so.sample_gaussian(so.SecondOrderPair.proper(2.0 * np.eye(n)), 3500, seed=81)
        entropy.knn_entropy(p)
        builds.clear()
        queried.clear()
        entropy.knn_kl_divergence(p, q)
        assert builds == q_trees
        assert queried == [3000]


@pytest.mark.parametrize("leaf_order", [True, False], ids=["indices", "build-and-query"])
def test_a_set_above_the_crossover_is_queried_once_per_k(monkeypatch, leaf_order):
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(4)), 2000, seed=82)
    builds, queried = _counting_tree(monkeypatch, leaf_order)
    first = entropy.knn_entropy(x)
    assert entropy.knn_entropy(x) == first
    entropy.knn_entropy(x, k=2)
    # a tree class without indices keeps the one tree, queried in row order
    search = ([(2000, 16, {}), (2000, entropy._LEAF_ORDER_LEAFSIZE, {})] if leaf_order
              else [(2000, 16, {})])
    assert builds == 2 * search
    assert queried == [2000, 2000]
    value, stderr, _, _ = _plain_search(linalg.real_vector(x.data), 4)
    assert (first.value, first.stderr) == (value, stderr)


def test_a_d_1_search_builds_no_tree_and_a_d_2_set_one_midpoint_tree_per_k(monkeypatch):
    builds, queried = _counting_tree(monkeypatch)
    x = so.sample_gaussian(scalar_pair(0.8), 2000, seed=86)
    entropy._search_points(linalg.real_vector(x.data)[:, :1], 4)
    assert builds == queried == []
    first = entropy.knn_entropy(x)
    assert entropy.knn_entropy(x) == first
    entropy.knn_entropy(x, k=2)
    midpoint = {"balanced_tree": False, "compact_nodes": False}
    assert builds == 2 * [(2000, 16, midpoint)]
    assert queried == [2000, 2000]
    # the joint sheared coordinates are searched with a tree, the modulus by a sort
    builds.clear()
    analog.divergence_to_analog(x)
    assert builds == [(2000, 16, midpoint)]
