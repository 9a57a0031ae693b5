"""Dense complex-matrix kernel.

Real embeddings of complex matrices, SVD, Hermitian eigendecomposition,
Takagi factorization of complex symmetric matrices, and the generalized
Cholesky factor B with B B^H = A. Matrices are plain numpy arrays
(complex128 / float64); everything here is a pure function.

Expected sizes are covariance-scale (n <= 64); no sparse or blocked code.

This module also holds the library's one tolerance policy: every verdict
threshold of the package is a constant below, each relative to the scale
of the quantity it tests, so no verdict changes when the input is
rescaled (the circularity coefficients are invariant under congruence and
rescaling). The private predicates apply them to scalars the caller
already has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPositiveDefinite, NotSymmetric

# ||A - A^T|| (or A^H) within SYM_RTOL ||A|| is symmetric (Hermitian) round-off.
SYM_RTOL = 1e-10
# A smallest eigenvalue or singular value at or below EIG_RTOL times the
# largest magnitude is zero (a singular matrix); a power budget within
# EIG_RTOL of the high-SNR threshold meets it.
EIG_RTOL = 1e-12
# An eigenvalue below -PSD_RTOL times the largest magnitude is truly negative.
PSD_RTOL = 1e-10
# lambda <= 1 is closed and log(1 - lambda^2) diverges at 1: a pair is valid
# up to 1 + LAMBDA_TOL, and a coefficient from 1 - LAMBDA_TOL up is at 1.
LAMBDA_TOL = 1e-10
# Singular values closer than this (relative to sigma_1) form one Takagi
# degeneracy block.
TAKAGI_GAP_RTOL = 1e-8
# An input trace up to POWER_RTOL above the budget S is round-off.
POWER_RTOL = 1e-8
# ||P||_2 within PROPER_RTOL ||C||_2 counts as a vanishing P (proper noise).
PROPER_RTOL = 1e-10


def as_complex(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def real_vector(x) -> np.ndarray:
    """Stack Re and Im parts of complex vectors: (..., n) complex -> (..., 2n) real."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real, x.imag], axis=-1)


def complex_vector(xr) -> np.ndarray:
    """Inverse of :func:`real_vector`."""
    xr = np.asarray(xr, dtype=float)
    n = xr.shape[-1] // 2
    if xr.shape[-1] != 2 * n:
        raise ValueError("real representation must have even length")
    return xr[..., :n] + 1j * xr[..., n:]


def overline_map(a) -> np.ndarray:
    """Real embedding [[Re A, -Im A], [Im A, Re A]] of a complex matrix.

    Multiplicative: overline_map(A @ B) = overline_map(A) @ overline_map(B),
    and unitary A maps to orthogonal overline_map(A).
    """
    a = as_complex(a)
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def underline_map(a) -> np.ndarray:
    """Real embedding [[Re A, Im A], [Im A, -Re A]] of a complex matrix.

    Pairs with overline_map: underline_map(A @ B) = overline_map(A) @ underline_map(B)
    and underline_map(A @ conj(B)) = underline_map(A) @ overline_map(B).
    """
    a = as_complex(a)
    return np.block([[a.real, a.imag], [a.imag, -a.real]])


def svd(a):
    """Full SVD: returns (U, sigma, V) with A = U @ D @ V^H.

    sigma is descending with min(n, m) entries; U (n x n) and V (m x m) are
    unitary, and D is the (n x m) matrix carrying sigma on its diagonal.
    """
    a = as_complex(a)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return u, s, vh.conj().T


def operator_norm(a) -> float:
    """Largest singular value (Euclidean operator norm)."""
    a = as_complex(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _symmetric_within_tol(a: np.ndarray, hermitian: bool) -> bool:
    """Whether ||A - A'|| <= SYM_RTOL ||A|| (Frobenius), A' = A^H or A^T.

    A is divided by its largest absolute entry first, so neither norm
    overflows or underflows and the verdict does not depend on A's scale.
    The norms are compared squared (vdot(x, x) = ||x||^2).
    """
    peak = np.abs(a).max()
    if peak == 0.0:
        return True
    a = a / peak
    diff = a - (a.conj().T if hermitian else a.T)
    return np.vdot(diff, diff).real <= SYM_RTOL**2 * np.vdot(a, a).real


def _not_positive(smallest, largest) -> bool:
    """Whether the smallest eigenvalue (or singular value) is zero next to the largest."""
    return smallest <= EIG_RTOL * max(abs(smallest), abs(largest))


def _negative(smallest, largest) -> bool:
    """Whether the smallest eigenvalue is negative beyond round-off (not PSD)."""
    return smallest < -PSD_RTOL * max(abs(smallest), abs(largest))


def _at_one(lam) -> bool:
    """Whether a circularity coefficient is at 1 within LAMBDA_TOL, or beyond."""
    return lam >= 1.0 - LAMBDA_TOL


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix: (U, d), A = U diag(d) U^H.

    d is real, sorted descending. Raises DimensionMismatch unless the input is
    a non-empty square matrix, and NotHermitian if it is not Hermitian within
    tolerance relative to its own norm.
    """
    a = as_complex(a)
    if a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch(f"expected a non-empty square matrix, got {a.shape}")
    if not _symmetric_within_tol(a, hermitian=True):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    d, u = np.linalg.eigh(0.5 * (a + a.conj().T))
    idx = np.argsort(d)[::-1]
    return u[:, idx], d[idx]


def generalized_cholesky(a) -> np.ndarray:
    """A non-singular B with B @ B^H = A, for Hermitian positive definite A.

    Built from the eigendecomposition, B = U diag(sqrt(d)); any other factor
    differs from this one by a right unitary. Raises NotPositiveDefinite when
    the smallest eigenvalue is not safely positive relative to the largest.
    """
    u, d = hermitian_eig(a)
    if _not_positive(d[-1], d[0]):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {d[-1]:.3e} fails the positivity threshold"
        )
    return u * np.sqrt(d)


def _degeneracy_blocks(sigma, gap):
    """Split descending sigma into runs of (nearly) equal values."""
    blocks = []
    start = 0
    for i in range(1, len(sigma)):
        if sigma[i - 1] - sigma[i] > gap:
            blocks.append(slice(start, i))
            start = i
    blocks.append(slice(start, len(sigma)))
    return blocks


def _symmetric_unitary_sqrt(w):
    """Symmetric square root of a symmetric unitary matrix.

    Re(W) and Im(W) are commuting real symmetric matrices, so W = O diag(e^{i t}) O^T
    for a real orthogonal O. The square root O diag(e^{i t/2}) O^T is again
    symmetric and unitary. O is found by diagonalizing Re(W), then re-diagonalizing
    Im(W) inside each repeated-eigenvalue cluster of Re(W).
    """
    w = 0.5 * (w + w.T)
    x, y = w.real.copy(), w.imag.copy()
    ax, ox = np.linalg.eigh(0.5 * (x + x.T))
    o = ox
    # cluster equal eigenvalues of Re(W) and rotate within each cluster; W is
    # unitary, so they lie in [-1, 1] and the gap is relative to 1
    start = 0
    for i in range(1, len(ax) + 1):
        if i == len(ax) or ax[i] - ax[i - 1] > TAKAGI_GAP_RTOL:
            if i - start > 1:
                sub = o[:, start:i]
                yb = sub.T @ y @ sub
                _, oy = np.linalg.eigh(0.5 * (yb + yb.T))
                o[:, start:i] = sub @ oy
            start = i
    phases = np.angle(np.diag(o.T @ w @ o))
    half = np.exp(0.5j * phases)
    return (o * half) @ o.T


@dataclass(frozen=True)
class TakagiFactorization:
    """Q unitary and sigma >= 0 descending with A = Q diag(sigma) Q^T."""

    q: np.ndarray
    sigma: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.q * self.sigma) @ self.q.T


def takagi(a) -> TakagiFactorization:
    """Takagi factorization A = Q diag(sigma) Q^T of a complex symmetric matrix.

    sigma are the singular values of A. The construction runs through the SVD
    A = U diag(sigma) V^H: W = U^H conj(V) is unitary and block-diagonal over
    the degeneracy blocks of sigma, symmetric on each block with sigma > 0, and
    Q = U W^{1/2} using the symmetric square root per block. Blocks of (near-)zero
    singular values contribute nothing to the reconstruction, so their square
    root is taken as the identity.

    Raises NotSymmetric if A is not complex symmetric within tolerance
    (symmetric, not Hermitian: A^T = A).
    """
    a = as_complex(a)
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric("takagi requires a square matrix")
    if a.size == 0:
        raise DimensionMismatch("takagi requires a non-empty matrix")
    if not _symmetric_within_tol(a, hermitian=False):
        raise NotSymmetric("matrix is not complex symmetric within tolerance")
    a = 0.5 * (a + a.T)
    n = a.shape[0]

    u, s, vh = np.linalg.svd(a)
    if s[0] <= 0.0:
        return TakagiFactorization(q=np.eye(n, dtype=complex), sigma=np.zeros(n))

    w = u.conj().T @ vh.T  # U^H conj(V), with V = vh^H so conj(V) = vh^T
    sqrt_w = np.zeros_like(w)
    zero_tol = EIG_RTOL * s[0]
    for blk in _degeneracy_blocks(s, TAKAGI_GAP_RTOL * s[0]):
        if s[blk][0] <= zero_tol:
            sqrt_w[blk, blk] = np.eye(blk.stop - blk.start)
        elif blk.stop - blk.start == 1:
            # a 1 x 1 block is a phase e^{it}; its root e^{it/2} needs no eigh
            sqrt_w[blk, blk] = np.exp(0.5j * np.angle(w[blk, blk]))
        else:
            sqrt_w[blk, blk] = _symmetric_unitary_sqrt(w[blk, blk])
    return TakagiFactorization(q=u @ sqrt_w, sigma=s)
