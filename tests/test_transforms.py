import numpy as np
import pytest
from hypothesis import given, strategies as st

from improper import transforms as tf


def test_mod1_basics():
    np.testing.assert_allclose(tf.mod1(np.array([0.0, 0.25, 1.0, 1.75, -0.25])),
                               [0.0, 0.25, 0.0, 0.75, 0.75])


def test_mod1_tiny_negative_rounds_to_zero():
    assert tf.mod1(-1e-18) == 0.0


@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_mod1_range(x):
    v = float(tf.mod1(x))
    assert 0.0 <= v < 1.0


def test_real_to_polar_conventions():
    p = tf.real_to_polar(np.array([1.0, -1.0, 1j, 0.0]))
    np.testing.assert_allclose(p.r, [1.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(p.phi, [0.0, 0.5, 0.25, 0.0])


def test_polar_round_trip():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
    back = tf.polar_to_real(tf.real_to_polar(x))
    np.testing.assert_allclose(back, x, atol=1e-12)


@given(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_polar_point_round_trip(r, phi):
    p = tf.PolarPoint(r=np.array([r]), phi=np.array([phi]))
    q = tf.real_to_polar(tf.polar_to_real(p))
    assert abs(q.r[0] - r) <= 1e-9 * max(1.0, r)
    if r > 1e-9:
        d = abs(q.phi[0] - phi)
        assert min(d, 1.0 - d) <= 1e-9


def test_shear_round_trip():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
    p = tf.real_to_polar(x)
    s = tf.polar_to_sheared(p)
    back = tf.sheared_to_polar(s)
    np.testing.assert_allclose(back.r, p.r, atol=1e-12)
    np.testing.assert_allclose(np.minimum(np.abs(back.phi - p.phi),
                                          1.0 - np.abs(back.phi - p.phi)),
                               0.0, atol=1e-12)


def test_shear_offsets_and_identity_for_scalars():
    p = tf.PolarPoint(r=np.ones(3), phi=np.array([0.1, 0.9, 0.3]))
    s = tf.polar_to_sheared(p)
    np.testing.assert_allclose(s.phi, [0.8, 0.6, 0.3], atol=1e-12)
    p1 = tf.PolarPoint(r=np.ones(1), phi=np.array([0.7]))
    np.testing.assert_array_equal(tf.polar_to_sheared(p1).phi, [0.7])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        tf.PolarPoint(r=np.ones(2), phi=np.ones(3))


def std_gauss_2d(xr):
    return np.exp(-np.sum(xr**2, axis=-1)) / np.pi


def test_polar_density_value():
    # circular scalar Gaussian at r = 1: (2 pi) * 1 * (1/pi) e^{-1} = 2/e
    p = tf.PolarPoint(r=np.array([1.0]), phi=np.array([0.3]))
    assert tf.polar_density(std_gauss_2d, p) == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)


def test_polar_density_phase_invariant_for_circular():
    r = np.full((50, 1), 0.7)
    phi = np.linspace(0, 1, 50, endpoint=False)[:, None]
    vals = tf.polar_density(std_gauss_2d, tf.PolarPoint(r=r, phi=phi))
    assert np.max(np.abs(vals - vals[0])) <= 1e-12


def test_polar_density_zero_radius():
    p = tf.PolarPoint(r=np.array([0.0]), phi=np.array([0.0]))
    assert tf.polar_density(std_gauss_2d, p) == 0.0


def test_polar_density_integrates_to_one():
    r = np.linspace(0, 8, 1601)
    phi = np.linspace(0, 1, 101)[:-1]
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    vals = tf.polar_density(std_gauss_2d, tf.PolarPoint(r=rr[..., None], phi=pp[..., None]))
    integral = np.trapezoid(vals.mean(axis=1), r)
    assert integral == pytest.approx(1.0, abs=1e-4)


def test_sheared_density_matches_polar():
    rng = np.random.default_rng(44)

    def gauss_4d(xr):
        return np.exp(-np.sum(xr**2, axis=-1)) / np.pi**2

    r = np.abs(rng.standard_normal((20, 2))) + 0.1
    phi = rng.random((20, 2))
    p = tf.PolarPoint(r=r, phi=phi)
    s = tf.polar_to_sheared(p)
    np.testing.assert_allclose(tf.sheared_density(gauss_4d, s),
                               tf.polar_density(gauss_4d, p), rtol=1e-12)
