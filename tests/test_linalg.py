import numpy as np
import pytest

from improper import analog, linalg
from improper.errors import DimensionMismatch, NotHermitian, NotSymmetric
from improper.second_order import SecondOrderPair


def test_real_vector_layout():
    x = np.array([1 + 2j, 3 - 1j])
    np.testing.assert_array_equal(linalg.real_vector(x), [1.0, 3.0, 2.0, -1.0])


def test_real_complex_vector_round_trip():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    np.testing.assert_array_equal(linalg.complex_vector(linalg.real_vector(x)), x)


def test_overline_scalar_blocks():
    a = np.array([[1 + 2j]])
    np.testing.assert_array_equal(linalg.overline_map(a), [[1.0, -2.0], [2.0, 1.0]])
    np.testing.assert_array_equal(linalg.underline_map(a), [[1.0, 2.0], [2.0, -1.0]])


@pytest.mark.parametrize("n", range(1, 9))
def test_embeddings_equal_the_block_construction_byte_for_byte(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[0, 0] = complex(-0.0, 0.0)  # signed zeros keep their sign through the fill
    for b in (a, a[:, : max(1, n // 2)]):
        over = np.block([[b.real, -b.imag], [b.imag, b.real]])
        under = np.block([[b.real, b.imag], [b.imag, -b.real]])
        for got, want in ((linalg.overline_map(b), over), (linalg.underline_map(b), under)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def test_overline_respects_products():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m, k = rng.integers(1, 6, size=3)
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        b = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        np.testing.assert_allclose(
            linalg.overline_map(a @ b),
            linalg.overline_map(a) @ linalg.overline_map(b),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            linalg.underline_map(a @ b),
            linalg.overline_map(a) @ linalg.underline_map(b),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            linalg.underline_map(a @ b.conj()),
            linalg.underline_map(a) @ linalg.overline_map(b),
            atol=1e-12,
        )


def test_overline_of_matrix_vector_action():
    # applying overline(a) to the stacked real vector is the same as a @ x
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    np.testing.assert_allclose(
        linalg.overline_map(a) @ linalg.real_vector(x),
        linalg.real_vector(a @ x),
        atol=1e-12,
    )


def test_overline_det_is_squared_modulus():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    det = np.linalg.det(a)
    np.testing.assert_allclose(
        np.linalg.det(linalg.overline_map(a)), abs(det) ** 2, rtol=1e-10
    )


def test_hermitian_eig_descending_and_reconstructs():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    c = g @ g.conj().T
    u, d = linalg.hermitian_eig(c)
    assert np.all(np.diff(d) <= 0)
    np.testing.assert_allclose((u * d) @ u.conj().T, c, atol=1e-10)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_part_is_halved_before_the_sum():
    # the bits of 0.5 (A + A^H) in the normal range, and no overflow at the top of it
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    d, u = np.linalg.eigh(0.5 * (a + a.conj().swapaxes(-1, -2)))
    got_u, got_d = linalg._eighs(a)
    assert got_u.tobytes() == np.ascontiguousarray(u[..., ::-1]).tobytes()
    assert got_d.tobytes() == np.ascontiguousarray(d[..., ::-1]).tobytes()
    _, top = linalg.hermitian_eig(1.5e308 * np.eye(2))
    assert top.tolist() == [1.5e308, 1.5e308]


def test_takagi_diagonal_case():
    fac = linalg.takagi(np.diag([2.0, 1.0]).astype(complex))
    np.testing.assert_allclose(fac.sigma, [2.0, 1.0])
    np.testing.assert_allclose(fac.reconstruct(), np.diag([2.0, 1.0]), atol=1e-12)


def test_takagi_negative_scalar():
    # A = [[-2]]: sigma 2 with a complex Q absorbing the sign
    fac = linalg.takagi(np.array([[-2.0]], dtype=complex))
    np.testing.assert_allclose(fac.sigma, [2.0])
    np.testing.assert_allclose(fac.reconstruct(), [[-2.0]], atol=1e-12)


def test_takagi_zero_matrix():
    fac = linalg.takagi(np.zeros((3, 3), dtype=complex))
    np.testing.assert_array_equal(fac.sigma, np.zeros(3))
    np.testing.assert_allclose(fac.q @ fac.q.conj().T, np.eye(3), atol=1e-12)


def test_takagi_random_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (g + g.T)
        fac = linalg.takagi(a)
        np.testing.assert_allclose(fac.reconstruct(), a, atol=1e-10 * max(1, np.linalg.norm(a)))
        np.testing.assert_allclose(fac.q @ fac.q.conj().T, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(fac.sigma, np.linalg.svd(a, compute_uv=False), atol=1e-10)
        assert np.all(fac.sigma >= 0)


def test_takagi_repeated_singular_values():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 6
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q0 = np.linalg.qr(g)[0]
        sig = np.repeat(np.sort(rng.random(3))[::-1], 2)
        a = (q0 * sig) @ q0.T
        fac = linalg.takagi(a)
        np.testing.assert_allclose(fac.reconstruct(), a, atol=1e-9)
        np.testing.assert_allclose(fac.sigma, sig, atol=1e-10)


def test_takagi_is_exact_at_nearly_repeated_singular_values():
    rng = np.random.default_rng(15)
    for gap in np.repeat(np.logspace(-9, -7, 9), 20):
        q0 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        a = (q0 * [1.0, 1.0 - gap]) @ q0.T
        fac = linalg.takagi(a)
        assert np.linalg.norm(fac.reconstruct() - a) <= 1e-12 * np.linalg.norm(a)
        assert np.abs(fac.q.conj().T @ fac.q - np.eye(2)).max() <= 1e-12


def test_analog_whitener_diagonalizes_p_at_nearly_equal_lambdas():
    rng = np.random.default_rng(16)
    q0 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    p = (q0 * [0.5, 0.5 - 1e-8]) @ q0.T
    model = analog.analog_gaussian_model(SecondOrderPair(cov=np.eye(2), pcov=0.5 * (p + p.T)))
    w = model.whitener
    assert np.abs(w @ model.pair.pcov @ w.T - np.diag(model.lambdas)).max() <= 1e-12
    assert np.abs(w @ w.conj().T - np.eye(2)).max() <= 1e-12


def test_takagi_rank_deficient():
    rng = np.random.default_rng(14)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = g @ g.T  # symmetric, rank 2
    fac = linalg.takagi(a)
    np.testing.assert_allclose(fac.reconstruct(), a, atol=1e-10)
    np.testing.assert_allclose(fac.q.conj().T @ fac.q, np.eye(4), atol=1e-12)
    assert np.sum(fac.sigma > 1e-10) == 2


def test_takagi_rejects_empty():
    with pytest.raises(DimensionMismatch):
        linalg.takagi(np.zeros((0, 0)))


def test_takagi_rejects_non_symmetric():
    with pytest.raises(NotSymmetric):
        linalg.takagi(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))
