"""Dense complex-matrix kernel.

Real embeddings of complex matrices, Hermitian eigendecomposition,
Takagi factorization of complex symmetric matrices (one eigendecomposition
of the real embedding), and the generalized Cholesky factor B with
B B^H = A. Matrices are plain numpy arrays (complex128 / float64);
everything here is a pure function.

Expected sizes are covariance-scale (n <= 64); no sparse or blocked code.

This module also holds the library's one tolerance policy: every verdict
threshold of the package is a constant below, each relative to the scale
of the quantity it tests, so no verdict changes when the input is
rescaled (the circularity coefficients are invariant under congruence and
rescaling). The private predicates apply them to scalars the caller
already has; _asymmetry, _eig_limits and _eighs also take stacks
(..., n, n), one value per matrix with the bits the matrix alone gives, for
second_order's stacked pair factorization. _asymmetry scales by an exact
power of two, so a subnormal or a near-overflow matrix gets the verdict of
the same matrix at scale 1, and a matrix equal to its transpose entry for
entry reads 0 after one comparison.

The package keeps its values in float range by how it writes them, not by
range tests. Only two places square raw entries: the Frobenius norms of
_asymmetry, after the exact scaling above, and the kd-tree distances of
entropy's searches, which search each sample set at a power-of-two scale
of its own. Every symmetric or Hermitian part, here and in second_order,
entropy and capacity, is halved before it is added, 0.5 A + 0.5 A^T (or
A^H): that has the bits of 0.5 (A + A^T) in the normal range, and entries
up to the float maximum stay finite. A log-determinant is a sum of logs
plus a constant, log det(pi e C) = sum log d + n log(pi e).

Beside it sits the one input gate, which decides what a well-formed input
is and which error names each fault: as_matrix admits every matrix and
sample set the package takes (DomainError for entries of a non-numeric
dtype, booleans included, DimensionMismatch for a wrong shape, DomainError
for a non-finite entry), and _int_at_least every count, k and
seed. _sealed makes the copy every holder keeps and every cache hands out,
and _rebuilt_from_fields makes copies and pickles of a holder go through its
constructor. Each array is gated and sealed once, where it enters its
holder (a SecondOrderPair, a ChannelSpec, a cached factorization); code
past the holder reads the held arrays without a second gate or copy. One
closed-form chain at n = 2 (validate_pair, SecondOrderPair, the spectrum,
both entropies, the analog model, ChannelSpec, solve_capacity and
capacity_loss) makes 8 gates and 14 seals; tests/test_factor_once.py pins
both counts.

_memo is the one content-keyed memo: a bounded LRU of sealed results keyed
by the exact bytes of the matrices they were computed from. hermitian_eig
takes one, with its Hermitian test inside, so a hit skips the test (a
failed test raises a fresh NotHermitian that carries the asymmetry it
measured, and stores nothing). second_order's pair factorization takes
another, and reads C's eigendecomposition through the first, so a matrix
factored by validate_pair, by SecondOrderPair.factors and by
neeser_massey_bound is factored once while it stays among the last
_MEMO_ENTRIES distinct inputs. A key reuses the bytes behind a sealed array
(or a full view of one), whose hash Python computes once. A stacked
factorization keys no memo: its items are read once, and a lookup per item
would cost more than it saves.

The memo is kept because its hits pay for its keys many times over.
Measured on 2 cores (Python 3.11, numpy 2.4, scipy 1.17): a closed-form
block of 12 ops takes 24 lookups of the pair memo with 12 hits and 22 of
hermitian_eig's with 10; a hit costs 4.6 us at n = 2, 5.8 at n = 8 and 59
at n = 64 (building and hashing the key), against 118 us, 159 us and
2.1 ms for the pair factorization it saves (37 us, 59 us and 1.1 ms for
the eigendecomposition). The four verify suites at seed 51 take 510 pair
lookups with 100 hits and 411 eigendecomposition lookups with 204.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, DomainError, NotHermitian, NotPositiveDefinite, NotSymmetric

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
_AT_ONE = 1.0 - LAMBDA_TOL
# An input trace up to POWER_RTOL above the budget S is round-off.
POWER_RTOL = 1e-8
# ||P||_2 within PROPER_RTOL ||C||_2 counts as a vanishing P (proper noise).
PROPER_RTOL = 1e-10

# Distinct inputs each memo keeps. A closed-form chain reuses a factorization
# within one or two calls. At n = 64 an entry holds about 0.13 MB
# (hermitian_eig: the key and U) or 0.3 MB (a pair: the key, the whitener, M,
# and the Takagi Q once taken).
_MEMO_ENTRIES = 8
_MEMOS = []  # every memo's lru_cache, for cache_info and cache_clear


def as_matrix(a, dtype=complex, square=False) -> np.ndarray:
    """a as a finite non-empty 2-D dtype array, square if square.

    Raises DomainError for entries that are not numbers (strings, quoted
    numbers, objects, booleans), DimensionMismatch for a wrong shape (rows
    of different lengths included) and DomainError for a non-finite entry.
    """
    try:
        a = np.asarray(a)
    except ValueError:  # a ragged nested list has no shape
        raise DimensionMismatch("expected a matrix, got rows of different lengths") from None
    if a.dtype.kind not in "iufc":  # a bool is not a number, as in files and counts
        raise DomainError(f"matrix entries must be numbers, got dtype {a.dtype}")
    a = a.astype(dtype, copy=False)
    if a.ndim != 2 or a.size == 0 or (square and a.shape[0] != a.shape[1]):
        kind = "square " if square else ""
        raise DimensionMismatch(f"expected a non-empty {kind}matrix, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) < a.size:  # count_nonzero: .all() without a reduce
        raise DomainError("matrix entries must be finite")
    return a


def _sealed(a: np.ndarray) -> np.ndarray:
    """A C-order copy of a whose memory is a bytes object.

    numpy refuses ``flags.writeable = True`` on it and on every view of it,
    so an array cached on an immutable value cannot be changed behind the
    cache's back.
    """
    return np.ndarray(a.shape, a.dtype, a.tobytes())


def _content(a: np.ndarray) -> tuple:
    """(dtype, shape, bytes) of a: equal for two arrays exactly when they hold the same bits.

    The bytes of a sealed array, or of a C-order view of all of it, are its
    own (and their hash is computed once); any other array is copied once.
    """
    base = a.base
    while isinstance(base, np.ndarray):
        base = base.base
    sealed = type(base) is bytes and len(base) == a.nbytes and a.flags.c_contiguous
    return a.dtype, a.shape, base if sealed else a.tobytes()


def _memo(compute):
    """compute(*arrays), memoized on the arrays' content in an LRU of _MEMO_ENTRIES.

    compute receives sealed arrays with the bits of the given ones, so a hit
    returns what a fresh call would. Every caller of a content is handed the
    same value: compute returns only sealed arrays, or holders of them. An
    exception is never stored, so a repeat raises a fresh one.
    """
    @functools.lru_cache(maxsize=_MEMO_ENTRIES)
    def by_content(*contents):
        return compute(*(np.ndarray(shape, dtype, data) for dtype, shape, data in contents))

    _MEMOS.append(by_content)

    def memoized(*arrays):
        return by_content(*map(_content, arrays))

    return memoized


def _rebuilt_from_fields(holder):
    """The ``__reduce__`` of every holder of sealed arrays: (its type, its field values).

    copy, deepcopy and pickle then rebuild the holder through its constructor,
    so the copy seals its own arrays and carries no cache of the original.
    """
    return type(holder), tuple(getattr(holder, f.name) for f in fields(holder))


def _int_at_least(value, name: str, low: int = 1) -> int:
    """value as an int; DomainError unless it is an integer >= low (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def real_vector(x) -> np.ndarray:
    """Stack Re and Im parts of complex vectors: (..., n) complex -> (..., 2n) real."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x.real, x.imag], axis=-1)


def complex_vector(xr) -> np.ndarray:
    """Inverse of :func:`real_vector`."""
    xr = np.asarray(xr, dtype=float)
    n = xr.shape[-1] // 2
    if xr.shape[-1] != 2 * n:
        raise DimensionMismatch("real representation must have even length")
    return xr[..., :n] + 1j * xr[..., n:]


def overline_map(a) -> np.ndarray:
    """Real embedding [[Re A, -Im A], [Im A, Re A]] of a complex matrix.

    Multiplicative: overline_map(A @ B) = overline_map(A) @ overline_map(B),
    and unitary A maps to orthogonal overline_map(A).
    """
    return _embedding(as_matrix(a), underline=False)


def underline_map(a) -> np.ndarray:
    """Real embedding [[Re A, Im A], [Im A, -Re A]] of a complex matrix.

    Pairs with overline_map: underline_map(A @ B) = overline_map(A) @ underline_map(B)
    and underline_map(A @ conj(B)) = underline_map(A) @ overline_map(B).
    """
    return _embedding(as_matrix(a), underline=True)


def _embedding(a: np.ndarray, underline: bool) -> np.ndarray:
    """overline_map or underline_map of a complex (n, m) array, without the gate.

    Fills one (2n, 2m) array block by block, with the bits np.block gives.
    """
    n, m = a.shape
    out = np.empty((2 * n, 2 * m))
    out[:n, :m] = a.real
    out[n:, :m] = a.imag
    if underline:
        out[:n, m:] = a.imag
        np.negative(a.real, out=out[n:, m:])
    else:
        np.negative(a.imag, out=out[:n, m:])
        out[n:, m:] = a.real
    return out


def operator_norm(a) -> float:
    """Largest singular value (Euclidean operator norm)."""
    return float(np.linalg.norm(as_matrix(a), 2))


def _asymmetry(a: np.ndarray, hermitian: bool, beside: np.ndarray | None = None):
    """||A - A'|| / max(||A||, ||S||) (Frobenius), A' = A^H or A^T; 0 for A = 0.

    Taken over the last two axes: a (..., n, n) stack gives an array with one
    value per matrix, each the bits the matrix alone gives (a numpy scalar).
    S is the matrix that sets A's scale, A itself unless ``beside`` is given.
    Both are first scaled by the power of two 2^-e that brings the largest
    |real or imaginary part| of either into [1/2, 1) (np.ldexp: exact, also
    for subnormal entries), so no square overflows or underflows and every
    power-of-two rescaling of the input gives the same bits. A stack whose
    every matrix equals its A' entry for entry (as every symmetrized matrix
    does) reads 0 after one comparison, the value the ratio takes there.
    """
    t = a.swapaxes(-1, -2)
    if not np.count_nonzero(a != (t.conj() if hermitian else t)):
        return np.zeros(a.shape[:-2])[()]
    rows = a.shape[:-2] + (-1,)
    flat = a.reshape(rows) if beside is None else np.concatenate(
        (a.reshape(rows), beside.reshape(rows)), axis=-1)  # A's entries, then S's
    flat = np.ascontiguousarray(flat).view(float)
    flat = np.ldexp(flat, -np.frexp(np.abs(flat).max(axis=-1))[1][..., None])
    if beside is None:
        norm2 = np.vecdot(flat, flat)
    else:
        halves = flat.reshape(a.shape[:-2] + (2, -1))
        norm2 = np.vecdot(halves, halves).max(axis=-1)
        flat = halves[..., 0, :]
    scaled = flat.view(a.dtype).reshape(a.shape)
    t = scaled.swapaxes(-1, -2)
    diff = (scaled - (t.conj() if hermitian else t)).reshape(flat.shape[:-1] + (-1,)).view(float)
    # a non-zero input now has ||.||^2 >= 1/4; the zero matrix reads 0 / (1/4) = 0
    return np.sqrt(np.vecdot(diff, diff) / np.maximum(norm2, 0.25))


def _symmetric_within_tol(a: np.ndarray, hermitian: bool) -> bool:
    """Whether ||A - A'|| <= SYM_RTOL ||A||, A' = A^H or A^T."""
    return _asymmetry(a, hermitian) <= SYM_RTOL


def _eig_limits(smallest, largest):
    """(zero, negative): the limits _not_positive and _negative test the smallest against.

    Elementwise, so stacks of smallest and largest values give stacks of limits.
    """
    scale = np.maximum(abs(smallest), abs(largest))
    return EIG_RTOL * scale, -PSD_RTOL * scale


def _not_positive(smallest, largest) -> bool:
    """Whether the smallest eigenvalue (or singular value) is zero next to the largest."""
    return smallest <= _eig_limits(smallest, largest)[0]


def _negative(smallest, largest) -> bool:
    """Whether the smallest eigenvalue is negative beyond round-off (not PSD)."""
    return smallest < _eig_limits(smallest, largest)[1]


def _at_one(lam) -> bool:
    """Whether a circularity coefficient is at 1 within LAMBDA_TOL, or beyond."""
    return lam >= _AT_ONE


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix: (U, d), A = U diag(d) U^H.

    d is real, sorted descending. Raises DimensionMismatch unless the input is
    a non-empty square matrix, and NotHermitian (carrying the asymmetry it
    measured) if it is not Hermitian within tolerance relative to its own
    norm. U and d are sealed (read-only): a matrix whose content was factored
    recently, here or by a pair's factorization, returns the same two arrays
    (_memo) without a second test, with the bits a fresh factorization would
    give.
    """
    return _hermitian_eig(as_matrix(a, square=True))


@_memo
def _hermitian_eig(a):
    asymmetry = _asymmetry(a, hermitian=True)
    if asymmetry > SYM_RTOL:
        raise NotHermitian("matrix is not Hermitian within tolerance", float(asymmetry))
    u, d = _eighs(a)
    return _sealed(u), _sealed(d)


def _eighs(a):
    """(U, d) of the Hermitian part (A + A^H) / 2 of each matrix of a (..., n, n) stack.

    One stacked eigh, d descending along the last axis (eigh's ascending
    order reversed, as views); no test and no memo. Each matrix gets the bits an eigh
    of it alone gives. A is halved before the sum (the module docstring); a
    subnormal entry may differ in its last bit.
    """
    h = 0.5 * a
    d, u = np.linalg.eigh(h + h.conj().swapaxes(-1, -2))
    return u[..., ::-1], d[..., ::-1]


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


@dataclass(frozen=True)
class TakagiFactorization:
    """Q unitary and sigma >= 0 descending with A = Q diag(sigma) Q^T."""

    q: np.ndarray
    sigma: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.q * self.sigma) @ self.q.T


def takagi(a) -> TakagiFactorization:
    """Takagi factorization A = Q diag(sigma) Q^T of a complex symmetric matrix.

    sigma are the singular values of A. The real embedding
    underline_map(A) = [[Re A, Im A], [Im A, -Re A]] is symmetric with
    eigenvalues +/- sigma (Horn & Johnson, Matrix Analysis, 4.4): an
    eigenvector [x; y] of +sigma_i gives the column q_i = x + i y, since then
    A conj(q_i) = sigma_i q_i. One eigh of the embedding thus yields the n
    columns, repeated singular values included. Where +sigma and -sigma meet
    near 0 the eigenvectors mix the two halves, so the columns pass through
    one QR: that moves only columns of (near-)zero weight, whose orthonormal
    completion is arbitrary, and flips the sign of the others.

    Raises DimensionMismatch unless A is a non-empty square matrix, and
    NotSymmetric if A is not complex symmetric within tolerance (symmetric,
    not Hermitian: A^T = A).
    """
    a = as_matrix(a, square=True)
    if not _symmetric_within_tol(a, hermitian=False):
        raise NotSymmetric("matrix is not complex symmetric within tolerance")
    return _takagi(0.5 * a + 0.5 * a.T)


def _takagi(a: np.ndarray) -> TakagiFactorization:
    """takagi of a matrix already exactly symmetric, without the input test."""
    n = a.shape[0]
    vals, vecs = np.linalg.eigh(_embedding(a, underline=True))
    top = vecs[:, n:][:, ::-1]  # the n largest eigenpairs, descending
    q = np.linalg.qr(top[:n] + 1j * top[n:])[0]
    return TakagiFactorization(q=q, sigma=np.maximum(vals[n:][::-1], 0.0))
