"""Each distinct matrix and pair is factored once, each channel spec solved once, each
sample set searched once per k.

The counter wraps numpy.linalg's eigh, eigvalsh, svd and inv, and counts
norm(., 2) of a matrix as the SVD it is, so a factorization hidden in a
helper still shows. It also counts det and slogdet, apart from the
factorizations: the capacity reads the singular values of H and the noise
entropy, so it takes no determinant, and the analog density reads its
Jacobian from the eigenvalues of C. The package calls numpy.linalg
through the module attribute, which is what the wrappers replace.
"""

import copy
import itertools
import pickle
from collections import Counter

import numpy as np
import pytest

import improper as ip
from improper import entropy, fileio, linalg
from improper.cli import main

COUNTED = ("eigh", "eigvalsh", "svd", "inv")
DETERMINANTS = ("det", "slogdet")


def _factored(counts) -> int:
    return sum(counts[name] for name in COUNTED)


@pytest.fixture
def factorizations(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in COUNTED + DETERMINANTS:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            counts["svd"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return counts


def _case(n, seed=3):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = g @ g.conj().T + 0.5 * np.eye(n)
    d, u = np.linalg.eigh(c)
    b = u * np.sqrt(d)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    p = b @ q @ np.diag(np.linspace(0.8, 0.1, n)) @ q.T @ b.T
    p = 0.5 * (p + p.T)
    h = np.eye(n) + 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h_inv = np.linalg.inv(h)
    power = 2.5 * 2 * n * np.linalg.norm(h_inv @ c @ h_inv.conj().T, 2)
    return c, p, h, float(power)


def test_closed_form_chain_factors_at_most_seven_times(factorizations):
    c, p, h, power = _case(2)
    factorizations.clear()
    assert ip.validate_pair(c, p).valid
    pair = ip.SecondOrderPair(cov=c, pcov=p)
    ip.circularity_spectrum(pair)
    ip.complex_gaussian_entropy(pair)
    ip.neeser_massey_bound(c)
    ip.analog_gaussian_model(pair)
    spec = ip.ChannelSpec(h=h, noise=pair, power=power)
    ip.solve_capacity(spec)
    ip.capacity_loss(spec)
    # C eigh, coherence SVD, Takagi eigh, SVD of H, inv(H), ||H^-1 C H^-H||_2, SVD of P_x
    assert _factored(factorizations) <= 7, dict(factorizations)


@pytest.fixture
def gates_and_seals(monkeypatch):
    """Counts of linalg.as_matrix (the input gate) and linalg._sealed (the holders' copy)."""
    counts = Counter()
    for name in ("as_matrix", "_sealed"):
        def counted(*args, _name=name, _fn=getattr(linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)
    return counts


def test_closed_form_chain_gates_and_seals_each_array_once(gates_and_seals):
    c, p, h, power = _case(2)
    gates_and_seals.clear()
    assert ip.validate_pair(c, p).valid
    pair = ip.SecondOrderPair(cov=c, pcov=p)
    ip.circularity_spectrum(pair)
    ip.complex_gaussian_entropy(pair)
    ip.neeser_massey_bound(c)
    ip.analog_gaussian_model(pair)
    spec = ip.ChannelSpec(h=h, noise=pair, power=power)
    ip.solve_capacity(spec)
    ip.capacity_loss(spec)
    # gates: C and P by validate_pair and by the pair, C by neeser_massey_bound, H by the
    # spec, the solved C_x and P_x by the input pair; nothing past a holder is gated again
    # seals: U and d of C's eigh, the B^-1, M and lambda stacks, the pair's C, P and mean,
    # the Takagi Q and sigma, H, the input pair's C_x, P_x and mean; each array once
    assert dict(gates_and_seals) == {"as_matrix": 8, "_sealed": 14}


def test_one_content_is_factored_once_across_entry_points(factorizations):
    c, p, _, _ = _case(3)
    factorizations.clear()
    assert ip.validate_pair(c, p).valid
    pair = ip.SecondOrderPair(cov=c, pcov=p)
    ip.complex_gaussian_entropy(pair)
    ip.neeser_massey_bound(c)
    ip.hermitian_eig(c.copy())  # another array, the same bits
    assert dict(factorizations) == {"eigh": 1, "svd": 1}
    assert ip.SecondOrderPair(cov=c, pcov=p).factors is pair.factors
    ip.neeser_massey_bound(c + 1e-3 * np.eye(3))  # other bits: factored anew
    assert factorizations["eigh"] == 2


def test_a_memo_hit_hands_out_sealed_arrays_with_fresh_bits():
    c, p, _, _ = _case(4)
    fresh_pair = ip.SecondOrderPair(cov=c, pcov=p).factors
    fresh_eig = linalg.hermitian_eig(c)
    hits = [memo.cache_info().hits for memo in linalg._MEMOS]
    again_eig = linalg.hermitian_eig(c.copy())
    again_pair = ip.SecondOrderPair(cov=c.copy(), pcov=p.copy()).factors
    assert [memo.cache_info().hits for memo in linalg._MEMOS] == [h + 1 for h in hits]
    for memo in linalg._MEMOS:
        memo.cache_clear()
    recomputed_eig = linalg.hermitian_eig(c)
    recomputed_pair = ip.SecondOrderPair(cov=c, pcov=p).factors
    assert recomputed_pair is not fresh_pair
    for hit, new in ((again_eig, recomputed_eig),
                     ((again_pair.d, again_pair.b_inv, again_pair.m, again_pair.lambdas),
                      (recomputed_pair.d, recomputed_pair.b_inv, recomputed_pair.m,
                       recomputed_pair.lambdas))):
        for a, b in zip(hit, new):
            assert a.tobytes() == b.tobytes()
            for link in _chain(a):
                with pytest.raises(ValueError):
                    link.flags.writeable = True
    assert again_eig[0] is fresh_eig[0] and again_pair is fresh_pair
    d, u = np.linalg.eigh(0.5 * (c + c.conj().T))  # unmemoized, on the caller's array
    order = np.argsort(d)[::-1]
    assert again_eig[0].tobytes() == u[:, order].tobytes()
    assert again_eig[1].tobytes() == d[order].tobytes()


def test_the_memos_hold_at_most_their_bound():
    not_hermitian = np.array([[1.0, 1.0], [0.0, 1.0]])
    raised = []
    for _ in range(2):  # an exception is never stored: each call raises its own
        with pytest.raises(ip.NotHermitian) as err:
            linalg.hermitian_eig(not_hermitian)
        raised.append(err.value)
    assert raised[0] is not raised[1]
    assert all(memo.cache_info().currsize == 0 for memo in linalg._MEMOS)
    for i in range(3 * linalg._MEMO_ENTRIES):
        c = np.eye(2) + 0.1 * i * np.ones((2, 2))
        linalg.hermitian_eig(c)
        ip.validate_pair(c, np.zeros((2, 2)))
        for memo in linalg._MEMOS:
            assert memo.cache_info().currsize <= linalg._MEMO_ENTRIES
    assert all(memo.cache_info().currsize == linalg._MEMO_ENTRIES for memo in linalg._MEMOS)


@pytest.mark.parametrize("call", ["circularity_spectrum", "complex_gaussian_entropy",
                                  "solve_capacity", "sample_gaussian"])
def test_repeat_on_one_object_factors_nothing(factorizations, call):
    c, p, h, power = _case(3)
    pair = ip.SecondOrderPair(cov=c, pcov=p)
    target = ip.ChannelSpec(h=h, noise=pair, power=power) if call == "solve_capacity" else pair
    args = (500, 7) if call == "sample_gaussian" else ()
    first = getattr(ip, call)(target, *args)
    factorizations.clear()
    again = getattr(ip, call)(target, *args)
    assert sum(factorizations.values()) == 0, dict(factorizations)
    if call == "solve_capacity":
        assert again is first  # the spec's one cached solution
    elif call == "complex_gaussian_entropy":
        assert again.value == first.value
    elif call == "sample_gaussian":
        np.testing.assert_array_equal(again.data, first.data)
    else:
        np.testing.assert_array_equal(again, first)


def test_analog_density_takes_no_determinant(factorizations):
    c, p, _, _ = _case(3)
    model = ip.analog_gaussian_model(ip.SecondOrderPair(cov=c, pcov=p))
    # at x = 0 the log density is its normalizer, with the |det W|^2 Jacobian
    normalizer = (2.0 * np.linalg.slogdet(model.whitener)[1] - 3 * np.log(np.pi)
                  - 0.5 * np.sum(np.log(1.0 - model.lambdas**2)))
    x = np.array([[0.3 - 0.2j, 1.1 + 0.4j, -0.5j], [0.0, 0.2, 0.7 + 0.1j]])
    factorizations.clear()
    for _ in range(4):
        ip.analog_gaussian_log_density(model, x)
    at_zero = ip.analog_gaussian_log_density(model, np.zeros(3))
    assert sum(factorizations.values()) == 0, dict(factorizations)
    assert abs(at_zero - normalizer) <= 1e-14 * abs(normalizer)


def test_cli_commands_factor_each_input_once(factorizations, tmp_path, capsys):
    c, p, h, power = _case(4)
    paths = {}
    for name, a in (("C", c), ("P", p), ("H", h)):
        paths[name] = str(tmp_path / f"{name}.json")
        fileio.write_matrix(paths[name], a)
    limits = {
        "validate": (["validate", paths["C"], paths["P"]], 2),
        "entropy": (["entropy", paths["C"], paths["P"]], 2),
        # C eigh, coherence SVD, SVD of H, inv(H), ||H^-1 C H^-H||_2, SVD of P_x
        "capacity --loss": (["capacity", paths["H"], paths["C"], paths["P"],
                             "--power", repr(power), "--loss"], 6),
    }
    for name, (argv, limit) in limits.items():
        factorizations.clear()
        assert main(argv) == 0, name
        assert _factored(factorizations) <= limit, (name, dict(factorizations))
        if name == "capacity --loss":
            assert not any(factorizations[d] for d in DETERMINANTS), dict(factorizations)
    capsys.readouterr()


def test_pair_and_spec_hold_read_only_copies():
    c, p, h, power = _case(2)
    pair = ip.SecondOrderPair(cov=c, pcov=p)
    spec = ip.ChannelSpec(h=h, noise=pair, power=power)
    for held, given in ((pair.cov, c), (pair.pcov, p), (spec.h, h)):
        assert not held.flags.writeable
        assert given.flags.writeable
        assert not np.shares_memory(held, given)
    assert not pair.mean.flags.writeable
    solved = ip.solve_capacity(spec)
    assert not solved.spectrum.flags.writeable
    assert not solved.input_pair.cov.flags.writeable
    c[0, 0] += 1.0  # the caller's array stays the caller's
    assert pair.cov[0, 0] != c[0, 0]
    data = np.ones((500, 2), dtype=complex)
    view = data[:, :1]
    view.flags.writeable = False  # a read-only view of a writeable array is still copied
    for given in (data, view):
        samples = ip.SampleSet(data=given)
        assert not samples.data.flags.writeable
        assert not np.shares_memory(samples.data, given)
    samples = ip.SampleSet(data=data)
    data[0, 0] = 7.0
    assert samples.data[0, 0] == 1.0
    drawn = ip.sample_gaussian(pair, 500, 1)
    for produced in (drawn, ip.circularize(drawn, 2)):
        assert not produced.data.flags.writeable


def _chain(a):
    """a and every array along its .base chain."""
    while isinstance(a, np.ndarray):
        yield a
        a = a.base


def test_held_and_cached_arrays_cannot_be_made_writeable(tmp_path):
    c, p, h, power = _case(2)
    pair = ip.SecondOrderPair(cov=c, pcov=p, mean=np.zeros(2))
    spec = ip.ChannelSpec(h=h, noise=ip.SecondOrderPair(cov=c, pcov=p), power=power)
    drawn = ip.sample_gaussian(pair, 500, 1)
    fileio.write_samples(str(tmp_path / "x.json"), drawn)
    factors, solved = pair.factors, ip.solve_capacity(spec)
    held = {
        "pair.cov": pair.cov, "pair.pcov": pair.pcov, "pair.mean": pair.mean, "spec.h": spec.h,
        "caller's set": ip.SampleSet(data=np.ones((500, 2), dtype=complex)).data,
        "sample_gaussian": drawn.data, "circularize": ip.circularize(drawn, 2).data,
        "read_samples": fileio.read_samples(str(tmp_path / "x.json")).data,
        "factors.d": factors.d, "factors.b_inv": factors.b_inv, "factors.m": factors.m,
        "factors.lambdas": factors.lambdas, "takagi.q": factors.takagi.q,
        "takagi.sigma": factors.takagi.sigma, "_sampling_factor": pair._sampling_factor,
        "spectrum": solved.spectrum, "input_pair.cov": solved.input_pair.cov,
        "model.lambdas": ip.analog_gaussian_model(pair).lambdas,
    }
    for name, array in held.items():
        for a in _chain(array):
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a.flags.writeable = True
    # neither cache can be changed behind its back
    x = ip.SampleSet(data=drawn.data)
    first = ip.knn_entropy(x, 1)
    with pytest.raises(ValueError):
        x.data.flags.writeable = True
    with pytest.raises(ValueError):
        x.data[:] *= 10
    assert ip.knn_entropy(x, 1) == ip.knn_entropy(ip.SampleSet(data=x.data.copy()), 1) == first
    h_z = ip.complex_gaussian_entropy(spec.noise).value
    with pytest.raises(ValueError):
        solved.spectrum.flags.writeable = True
    with pytest.raises(ValueError):
        solved.spectrum[:] = 0.999
    assert ip.complex_gaussian_entropy(spec.noise).value == h_z
    assert ip.solve_capacity(spec).spectrum is solved.spectrum


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_rebuilt_sealed_and_uncached(how):
    duplicate = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                 "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how]
    c, p, h, power = _case(2)
    pair = ip.SecondOrderPair(cov=c, pcov=p)
    spec = ip.ChannelSpec(h=h, noise=ip.SecondOrderPair(cov=c, pcov=p), power=power)
    x = ip.sample_gaussian(pair, 500, 1)
    h_pair, h_x, cap = (ip.complex_gaussian_entropy(pair).value, ip.knn_entropy(x, 1).value,
                        ip.solve_capacity(spec).capacity_nats)
    pair2, x2, spec2 = duplicate(pair), duplicate(x), duplicate(spec)
    for holder, cache in ((pair2, "factors"), (x2, "_searches"), (spec2, "factors")):
        assert cache not in vars(holder)
    for held in (pair2.cov, pair2.pcov, pair2.mean, x2.data, spec2.h, spec2.noise.pcov):
        with pytest.raises(ValueError):
            held[...] *= 10
    assert x2.seed == x.seed and spec2.power == spec.power
    assert ip.complex_gaussian_entropy(pair2).value == h_pair
    assert ip.knn_entropy(x2, 1).value == h_x
    assert ip.solve_capacity(spec2).capacity_nats == cap


def test_spectrum_error_is_raised_fresh_each_call():
    pair = ip.SecondOrderPair(cov=np.diag([1.0, 0.0]), pcov=np.zeros((2, 2)))
    raised = []
    for _ in range(2):
        with pytest.raises(ip.SingularCovariance) as err:
            ip.circularity_spectrum(pair)
        raised.append(err.value)
    assert raised[0] is not raised[1]
    assert str(raised[0]) == str(raised[1])
    with pytest.raises(ip.NotHermitian):
        ip.circularity_spectrum(ip.SecondOrderPair(cov=np.array([[1.0, 1.0], [0.0, 1.0]]),
                                                   pcov=np.zeros((2, 2))))


def _sets():
    x = ip.sample_gaussian(ip.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.6]])), 1000, 5)
    y = ip.sample_gaussian(ip.SecondOrderPair.proper(np.eye(1)), 1200, 6)
    return x, y


@pytest.fixture
def trees(monkeypatch):
    """The point arrays of every kd-tree the estimators build."""
    real, built = entropy.cKDTree, []

    def counted(data, *args, **kwargs):
        built.append(np.array(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(entropy, "cKDTree", counted)
    return built


ESTIMATES = {
    "knn_entropy": lambda x, y: ip.knn_entropy(x),
    "knn_kl_divergence": lambda x, y: ip.knn_kl_divergence(x, y),
    "analog_entropy_gap": lambda x, y: ip.analog_entropy_gap(x, seed=3),
}


@pytest.mark.parametrize("order", itertools.permutations(ESTIMATES), ids="/".join)
def test_each_sample_set_is_searched_once_per_k(trees, order):
    x, y = _sets()
    got = {name: ESTIMATES[name](x, y) for name in order}
    x_points = linalg.real_vector(x.data)
    assert sum(np.array_equal(t, x_points) for t in trees) == 1
    assert len(trees) == 3  # x; y, which only the p-points query; the rotated x
    ip.knn_entropy(x, k=2)  # another k is another search
    assert sum(np.array_equal(t, x_points) for t in trees) == 2
    # the same bits as on fresh sets, whatever ran first
    fresh = [ip.SampleSet(data=s.data.copy(), seed=s.seed) for s in (x, y)]
    assert got == {name: call(*fresh) for name, call in ESTIMATES.items()}


def test_a_cached_search_gives_the_bits_of_a_fresh_one():
    from scipy.spatial import cKDTree

    x, y = _sets()
    first = ip.knn_entropy(x)
    assert ip.knn_entropy(x) == first == ip.knn_entropy(ip.SampleSet(data=x.data.copy()))
    # the divergence is a difference of means: d (mean log nu - mean log rho) + log(M / (N - 1))
    xr, yr = linalg.real_vector(x.data), linalg.real_vector(y.data)
    rho = cKDTree(xr).query(xr, k=[5])[0][:, 0]
    nu = cKDTree(yr).query(xr, k=[4])[0][:, 0]
    elementwise = 2 * np.mean(np.log(nu) - np.log(rho)) + np.log(1200 / 999)
    assert elementwise > 0.1
    assert abs(ip.knn_kl_divergence(x, y) - elementwise) <= 1e-13


def test_a_tied_search_raises_each_estimators_own_error(trees):
    x, y = _sets()
    tied = ip.SampleSet(data=np.repeat(x.data[:200], 5, axis=0))  # k + 1 = 5 copies
    texts = []
    for call in (lambda: ip.knn_entropy(tied), lambda: ip.knn_kl_divergence(tied, y),
                 lambda: ip.knn_entropy(tied)):
        with pytest.raises(ip.TiedSamples) as err:
            call()
        texts.append(str(err.value))
    assert texts == ["1000 of 1000 points tied: k-th neighbor distance (k=4) is 0",
                     "1000 of 1000 points tied: k-th neighbor distance within p (k=4) is 0",
                     texts[0]]
    assert len(trees) == 1
