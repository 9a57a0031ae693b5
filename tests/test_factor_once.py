"""Each pair and each channel spec is factored once.

The counter wraps numpy.linalg's eigh, eigvalsh, svd and inv, and counts
norm(., 2) of a matrix as the SVD it is, so a factorization hidden in a
helper still shows. It also counts det and slogdet, apart from the
factorizations: the capacity reads the singular values of H and the noise
entropy, so it takes no determinant, and the analog density reads its
Jacobian from the eigenvalues of C. The package calls numpy.linalg
through the module attribute, which is what the wrappers replace.
"""

from collections import Counter

import numpy as np
import pytest

import improper as ip
from improper import fileio
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


def test_closed_form_chain_factors_at_most_ten_times(factorizations):
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
    assert _factored(factorizations) <= 10, dict(factorizations)


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
