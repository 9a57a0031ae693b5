import numpy as np
import pytest
from scipy.special import i0e

from improper import analog, entropy, second_order as so, transforms as tf
from improper.errors import (DegenerateConditional, DimensionMismatch, DomainError, InvalidPair,
                             TiedSamples, TooFewSamples)


def improper_scalar(lam=0.8):
    return so.SecondOrderPair(cov=np.eye(1), pcov=np.array([[lam]], dtype=complex))


def test_circularize_preserves_moduli():
    x = so.sample_gaussian(improper_scalar(), 2000, seed=81)
    rot = analog.circularize(x, seed=5)
    np.testing.assert_allclose(np.abs(rot.data), np.abs(x.data), atol=1e-12)
    rot2 = analog.circularize(x, seed=5)
    np.testing.assert_array_equal(rot.data, rot2.data)


def test_circularize_kills_pseudo_covariance():
    n = 50_000
    x = so.sample_gaussian(improper_scalar(0.8), n, seed=82)
    rot = analog.circularize(x, seed=7)
    emp = so.empirical_pair(rot)
    assert np.max(np.abs(emp.pcov)) <= 5.0 / np.sqrt(n)


def test_circularize_on_circular_input_stays_circular():
    n = 50_000
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), n, seed=84)
    before = np.max(np.abs(so.empirical_pair(x).pcov))
    after = np.max(np.abs(so.empirical_pair(analog.circularize(x, seed=9)).pcov))
    assert before <= 2.0 / np.sqrt(n)
    assert after <= 2.0 / np.sqrt(n)


def test_bessel_i0_matches_defining_integral():
    # I0(x) = integral over one period of exp(x cos(2 pi t)) dt, written as
    # e^x * mean(exp(-2x sin^2(pi t))); the rectangle rule on a periodic
    # integrand converges geometrically, so 4096 nodes are exact to round-off
    grid = np.concatenate([np.linspace(0.0, 20.0, 401), np.linspace(20.5, 700.0, 200)])
    t = np.arange(4096) / 4096
    scaled = np.exp(-2.0 * grid[:, None] * np.sin(np.pi * t) ** 2).mean(axis=1)
    np.testing.assert_allclose(analog.bessel_i0(grid), np.exp(grid) * scaled, rtol=1e-12)


def test_log_bessel_i0_matches_asymptotic_series():
    # direct I0 overflows near 710; the log form must stay finite and match
    # e^x / sqrt(2 pi x) * sum_k a_k x^-k, a_k = ((2k-1)!!)^2 / (8^k k!),
    # whose ninth term is below 1e-20 of the first for x >= 500
    for x in np.concatenate([[500.0, 700.0, 5000.0, 1e6], np.geomspace(500.0, 1e6, 40)]):
        term, series = 1.0, 1.0
        for k in range(1, 9):
            term *= (2 * k - 1) ** 2 / (8.0 * k * x)
            series += term
        expected = x - 0.5 * np.log(2.0 * np.pi * x) + np.log(series)
        assert analog.log_bessel_i0(x) == pytest.approx(expected, rel=1e-14)


def test_bessel_i0_scalar_and_array_forms():
    v = analog.bessel_i0(2.0)
    assert np.isscalar(v) or np.ndim(v) == 0
    arr = analog.bessel_i0(np.array([0.0, 1.0, 20.0]))
    assert arr.shape == (3,)
    assert arr[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        analog.log_bessel_i0(-1.0)


def test_bessel_i0_rejects_non_finite_arguments():
    for x in (np.nan, np.inf, -np.inf, np.array([1.0, np.nan]), np.array([0.5, np.inf])):
        for fn in (analog.log_bessel_i0, analog.bessel_i0):
            with pytest.raises(DomainError):
                fn(x)


def test_analog_model_proper_case():
    model = analog.analog_gaussian_model(so.SecondOrderPair.proper(np.eye(1)))
    np.testing.assert_allclose(model.lambdas, [0.0], atol=1e-12)
    rng = np.random.default_rng(84)
    pts = (rng.standard_normal(50) + 1j * rng.standard_normal(50))[:, None]
    dens = analog.analog_gaussian_density(model, pts)
    np.testing.assert_allclose(dens, np.exp(-np.abs(pts[:, 0]) ** 2) / np.pi, rtol=1e-12)


def test_analog_model_rejections():
    with pytest.raises(InvalidPair):
        analog.analog_gaussian_model(
            so.SecondOrderPair(cov=np.eye(1), pcov=np.eye(1), mean=np.array([1.0 + 0j])))
    with pytest.raises(InvalidPair):
        analog.analog_gaussian_model(
            so.SecondOrderPair(cov=np.eye(1), pcov=np.array([[1.5]])))


def test_analog_density_scalar_oracle():
    # scalar lambda: f(x) = (1/pi) (1-l^2)^{-1/2} exp(-|x|^2/(1-l^2)) I0(l |x|^2 / (1-l^2))
    lam = 0.8
    model = analog.analog_gaussian_model(improper_scalar(lam))
    s2 = 1.0 - lam**2
    r = np.array([0.0, 0.3, 1.0, 2.5, 5.0])
    arg = lam * r**2 / s2
    expected = np.exp(-(r**2) / s2 + arg) * i0e(arg) / (np.pi * np.sqrt(s2))
    got = analog.analog_gaussian_density(model, r[:, None].astype(complex))
    np.testing.assert_allclose(got, expected, rtol=1e-11)


def test_analog_density_phase_invariant():
    model = analog.analog_gaussian_model(improper_scalar())
    rng = np.random.default_rng(85)
    r = np.abs(rng.standard_normal(30)) + 0.05
    base = analog.analog_gaussian_density(model, r[:, None].astype(complex))
    for theta in (0.1, 0.37, 0.9):
        rotated = (r * np.exp(2j * np.pi * theta))[:, None]
        np.testing.assert_allclose(
            analog.analog_gaussian_density(model, rotated), base, rtol=1e-11)


def test_analog_density_integrates_to_one():
    model = analog.analog_gaussian_model(improper_scalar(0.9))
    r = np.linspace(0.0, 14.0, 8001)
    dens = analog.analog_gaussian_density(model, r[:, None].astype(complex))
    integral = np.trapezoid(2 * np.pi * r * dens, r)
    assert integral == pytest.approx(1.0, abs=1e-5)


def test_analog_density_log_consistency():
    model = analog.analog_gaussian_model(improper_scalar())
    rng = np.random.default_rng(86)
    pts = (rng.standard_normal(20) + 1j * rng.standard_normal(20))[:, None]
    np.testing.assert_allclose(
        analog.analog_gaussian_density(model, pts),
        np.exp(analog.analog_gaussian_log_density(model, pts)),
        rtol=1e-12,
    )


def test_analog_density_gates_its_points():
    model = analog.analog_gaussian_model(so.SecondOrderPair(
        cov=np.eye(2), pcov=np.diag([0.8, 0.3]).astype(complex)))
    rng = np.random.default_rng(87)
    batch = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    dens = analog.analog_gaussian_density(model, batch)
    assert dens.shape == (3, 4)
    assert analog.analog_gaussian_density(model, batch[1, 2]) == dens[1, 2]
    for fn in (analog.analog_gaussian_log_density, analog.analog_gaussian_density):
        for bad in (np.ones(3), np.ones((5, 1)), np.ones((2, 3, 3))):
            with pytest.raises(DimensionMismatch):
                fn(model, bad)
        for bad in ([np.nan, 0.0], [[1.0, 0.0], [np.inf, 1j]]):
            with pytest.raises(DomainError):
                fn(model, np.array(bad, dtype=complex))


def test_analog_density_no_overflow_far_out():
    # the quadratic and the Bessel argument both grow like r^2; the log path
    # must cancel them without inf/nan
    model = analog.analog_gaussian_model(improper_scalar(0.99))
    pts = np.array([[50.0 + 0j], [100.0 + 0j]])
    logs = analog.analog_gaussian_log_density(model, pts)
    assert np.all(np.isfinite(logs))
    assert np.all(logs < 0)


def test_whitener_standardizes_the_pair():
    rng = np.random.default_rng(87)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = g @ g.conj().T + 0.2 * np.eye(2)
    q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    b = np.linalg.cholesky(c)
    lams = np.array([0.7, 0.3])
    p = b @ (q * lams) @ q.T @ b.T
    pair = so.SecondOrderPair(cov=c, pcov=0.5 * (p + p.T))
    model = analog.analog_gaussian_model(pair)
    w = model.whitener
    np.testing.assert_allclose(w @ pair.cov @ w.conj().T, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(w @ pair.pcov @ w.T, np.diag(model.lambdas), atol=1e-10)
    np.testing.assert_allclose(model.lambdas, lams, atol=1e-10)


def test_divergence_circular_input_near_zero():
    x = so.sample_gaussian(so.SecondOrderPair.proper(np.eye(1)), 50_000, seed=88)
    assert analog.divergence_to_analog(x) <= 0.04


def test_divergence_improper_scalar_matches_gap():
    x = so.sample_gaussian(improper_scalar(0.8), 50_000, seed=89)
    d = analog.divergence_to_analog(x)
    gap = analog.analog_entropy_gap(x, seed=11)
    assert d == pytest.approx(gap, abs=0.08)
    assert d > 0.3


def test_divergence_two_dimensional_input():
    pair = so.SecondOrderPair(cov=np.eye(2), pcov=np.diag([0.8, 0.0]).astype(complex))
    x = so.sample_gaussian(pair, 30_000, seed=90)
    d = analog.divergence_to_analog(x)
    # only the first coordinate is improper; the divergence matches the scalar case
    assert d == pytest.approx(0.4676, abs=0.1)


def test_divergence_requirements():
    small = so.sample_gaussian(improper_scalar(), 300, seed=91)
    with pytest.raises(TooFewSamples):
        analog.divergence_to_analog(small)
    rng = np.random.default_rng(92)
    ring = so.SampleSet(data=np.exp(2j * np.pi * rng.random(2000))[:, None], seed=0)
    with pytest.raises(DegenerateConditional):
        analog.divergence_to_analog(ring)


def test_divergence_to_analog_tie_errors():
    # constant radius: the reduced representation ties, the phase is a point mass
    rng = np.random.default_rng(94)
    ring = so.SampleSet(data=np.exp(2j * np.pi * rng.random(2000))[:, None], seed=0)
    with pytest.raises(DegenerateConditional) as info:
        analog.divergence_to_analog(ring)
    assert isinstance(info.value.__cause__, TiedSamples)
    # repeated samples tie in the full representation
    x = so.sample_gaussian(improper_scalar(), 200, seed=95)
    repeated = so.SampleSet(data=np.repeat(x.data, 10, axis=0), seed=0)
    with pytest.raises(TiedSamples):
        analog.divergence_to_analog(repeated)


def test_gap_nonnegative_up_to_noise():
    x = so.sample_gaussian(improper_scalar(0.5), 20_000, seed=93)
    h = entropy.knn_entropy(x)
    gap = analog.analog_entropy_gap(x, seed=13)
    assert gap >= -3 * np.hypot(h.stderr, h.stderr)


def test_circularized_phases_rotation_invariant():
    rng = np.random.default_rng(94)
    x = so.sample_gaussian(improper_scalar(0.8), 30_000, seed=95)
    rot = analog.circularize(x, seed=17)
    phases = tf.real_to_polar(rot.data).phi[:, 0]
    half = len(phases) // 2
    from scipy.stats import ks_2samp
    for theta in (0.25, 0.5, 0.77):
        shifted = tf.mod1(phases[half:] - theta)
        assert ks_2samp(phases[:half], shifted).pvalue >= 0.01
