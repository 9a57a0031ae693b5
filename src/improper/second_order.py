"""Second-order structure of complex random vectors.

A complex random vector x carries a covariance C = E[(x-m)(x-m)^H] and a
complementary (pseudo-)covariance P = E[(x-m)(x-m)^T]. This module builds,
validates, embeds and samples such (C, P) pairs:

* real_covariance / pair_from_real_covariance: the 2n x 2n real covariance
  of the stacked [Re x; Im x] vector and its inverse map,
* PairFactors: the one factorization of a pair, read by everything below.
  One eigendecomposition C = U diag(d) U^H gives the whitener
  B^-1 = diag(1/sqrt(d)) U^H; one SVD of the coherence matrix
  M = B^-1 P B^-T gives the circularity coefficients; the Takagi
  factorization of M (the canonical coordinates) is taken on first use.
  _factor_pairs factors a (k, n, n) stack of pairs with one stacked eigh
  and one stacked SVD; a single pair is its batch of one (_factor_pair),
  so the scalar and the batched API run the same code and give the same
  bits,
* circularity_spectrum: the singular values lambda_i of M; a valid pair has
  every lambda_i <= 1,
* validate_pair: the full admissibility check with a machine-readable reason,
* sample_gaussian / empirical_pair: seeded Gaussian sampling and 1/N moment
  estimation.

A SecondOrderPair holds sealed copies of C, P and the mean
(linalg._sealed: memory numpy cannot make writeable) and factors them on
first use (``pair.factors``); every later spectrum, validity verdict,
entropy, analog model or capacity solve of that pair reads the same
factorization, whose arrays are sealed too, so no reader can change what
the next one reads. The Gaussian entropy and the Takagi factors are cached
on the factorization on first use. The factorization is also memoized on
the content of (C, P) (linalg._memo, the last linalg._MEMO_ENTRIES distinct
pairs), and the eigendecomposition of C on C's content
(linalg.hermitian_eig): so validate_pair(c, p), SecondOrderPair(c, p) and
neeser_massey_bound(c) on the same arrays take one eigendecomposition of C
and one SVD of M between them. validate_pair gates (C, P) and reads that
memo without building a pair. A stack bypasses both memos: _factored_pairs
builds the SecondOrderPairs of a stack and hands each its factorization
from one _factor_pairs call. The validity tests are relative to the scale
of the pair (the thresholds are linalg's), so rescaling a pair does not
change its verdict, at the ends of float range too.

The factorization of a pair is a handful of LAPACK calls wrapped in numpy
and Python, and at n <= 8 the wrapping costs more than the calls. So the
batch of one does no step twice: each asymmetry is taken once (C's inside
hermitian_eig's memo, where a hit skips it), a matrix equal to its
transpose entry for entry skips the norms, d, B^-1, M and the lambdas are
sealed once per stack, and validate_pair builds no pair. Per-step costs of
the whole closed-form chain are in README ("Library").

A SampleSet likewise holds a sealed copy of its array, and the kNN
estimators search it once per k per set object (entropy).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InvalidPair,
    NotHermitian,
    NotPositiveSemidefinite,
    NotSymmetric,
    SingularCovariance,
    SpectrumAtOne,
    TooFewSamples,
)

# validate_pair reasons (also printed verbatim by the CLI)
OK = "OK"
C_NOT_HERMITIAN = "C_NOT_HERMITIAN"
C_NOT_PSD = "C_NOT_PSD"
C_SINGULAR = "C_SINGULAR"
P_NOT_SYMMETRIC = "P_NOT_SYMMETRIC"
SPECTRUM_EXCEEDS_ONE = "SPECTRUM_EXCEEDS_ONE"


@dataclass(frozen=True)
class PairValidity:
    valid: bool
    reason: str
    max_lambda: float


@dataclass(frozen=True)
class PairFactors:
    """The one factorization of a pair (C, P); built by _factor_pairs.

    validity: the admissibility verdict; measured, limit: what the check that
    decided it measured and tested against (valid: lambda_max, 1 + LAMBDA_TOL).
    d: eigenvalues of C, descending (None when C is not Hermitian).
    b_inv: the whitener B^-1 = diag(1/sqrt(d)) U^H, with B B^H = C.
    m: the coherence matrix B^-1 P B^-T; lambdas: its singular values,
    descending (b_inv, m and lambdas are None unless C is positive definite).
    All arrays, the Takagi factors included, are sealed (linalg._sealed).
    """

    validity: PairValidity
    measured: float
    limit: float
    d: np.ndarray | None = None
    b_inv: np.ndarray | None = None
    m: np.ndarray | None = None
    lambdas: np.ndarray | None = None

    def _raise(self):
        if self.validity.reason == C_NOT_HERMITIAN:
            raise NotHermitian("matrix is not Hermitian within tolerance", self.measured)
        if self.validity.reason == C_NOT_PSD:
            raise NotPositiveSemidefinite(
                f"C smallest eigenvalue {self.measured:.3e} below {self.limit:.3e}")
        raise SingularCovariance(
            f"C smallest eigenvalue {self.measured:.3e} below singularity threshold")

    def cov_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of C, descending; raises NotHermitian if C is not Hermitian."""
        if self.d is None:
            self._raise()
        return self.d

    def spectrum(self) -> np.ndarray:
        """Circularity coefficients; raises what makes them undefined (a fresh exception)."""
        if self.lambdas is None:
            self._raise()
        return self.lambdas

    def require_valid(self) -> None:
        """Raise InvalidPair, naming the reason, unless the pair is valid."""
        if not self.validity.valid:
            raise InvalidPair(self.validity.reason)

    def spectrum_below_one(self) -> np.ndarray:
        """Circularity coefficients of a valid pair whose entropy is finite.

        Raises InvalidPair for an invalid pair and SpectrumAtOne when the
        largest coefficient is at 1 within linalg.LAMBDA_TOL.
        """
        self.require_valid()
        if linalg._at_one(self.validity.max_lambda):
            raise SpectrumAtOne(f"max circularity coefficient {self.validity.max_lambda:.12g}")
        return self.lambdas

    @cached_property
    def gaussian_entropy(self):
        """entropy.complex_gaussian_entropy of the pair, computed on first use.

        A failed requirement raises each time (a fresh exception), as the
        spectrum does.
        """
        from .entropy import _gaussian_entropy  # entropy imports this module

        return _gaussian_entropy(self)

    @cached_property
    def takagi(self) -> linalg.TakagiFactorization:
        """Takagi factorization M = Q diag(sigma) Q^T, computed on first use.

        One eigh of M's real embedding (linalg.takagi); sigma equals lambdas
        to round-off, and Q is unitary to round-off however close the
        lambdas are. M's symmetric part is symmetric by construction, so
        takagi's input test is skipped.
        """
        self.spectrum()  # raises when C is not positive definite (M undefined)
        fac = linalg._takagi(0.5 * (self.m + self.m.T))
        return linalg.TakagiFactorization(q=linalg._sealed(fac.q), sigma=linalg._sealed(fac.sigma))


def _hermitian_eighs(c: np.ndarray):
    """(skew, U, d) of a (k, n, n) stack: C's Hermitian test and eigendecomposition.

    skew maps each item whose C fails the test to the asymmetry it measured;
    U and d (sealed: PairFactors hold it) are linalg._eighs of the others,
    in order.
    """
    asym = linalg._asymmetry(c, hermitian=True)
    hermitian = asym <= linalg.SYM_RTOL
    skew = {i: a for i, a in enumerate(asym.tolist()) if a > linalg.SYM_RTOL}
    u, d = linalg._eighs(c[hermitian] if skew else c)
    return skew, u, linalg._sealed(d)


def _memoized_eighs(c: np.ndarray):
    """_hermitian_eighs of a batch of one, through hermitian_eig's memo.

    The Hermitian test and the eigh run only when C's content misses the
    memo; a failed test's asymmetry comes with its NotHermitian.
    """
    try:
        u, d = linalg._hermitian_eig(c[0])
    except NotHermitian as err:
        return {0: err.asymmetry}, None, None
    return {}, u[None], d[None]


def _factor_pairs(c: np.ndarray, p: np.ndarray,
                  hermitian_eighs=_hermitian_eighs) -> list[PairFactors]:
    """Factor each pair of two (k, n, n) complex stacks once: a list of k PairFactors.

    Runs validate_pair's tests on every item in its order, each as one
    stacked step: the Hermitian test on C and one eigendecomposition of the
    Hermitian C's (hermitian_eighs, d descending); the positivity and
    singularity limits; B^-1 and M = B^-1 P B^-T of the positive definite
    items alone (no other item reaches a square root or a division); one
    values-only SVD of their M's; P's asymmetry against max(||P||, ||C||),
    the pair's scale, so a P that cancels to round-off next to C is
    symmetric; the lambda limit. The first failed test names an item's
    reason and records the number it measured (a C asymmetry is taken once,
    for the test and the record). Each test on C is relative to C's scale,
    and each item gets the bits it gets alone. Every array a PairFactors
    holds is a view of one sealed stack: d, B^-1, M and the lambdas are
    sealed once per call, not once per item. A stack bypasses linalg._memo;
    _factor_pair, the batch of one, reads C's eigendecomposition through
    hermitian_eig's memo.
    """
    out = [None] * len(c)
    skew, u, d = hermitian_eighs(c)
    herm = range(len(c))
    if skew:
        for i, a in skew.items():
            out[i] = PairFactors(PairValidity(False, C_NOT_HERMITIAN, float("nan")), a,
                                 linalg.SYM_RTOL)
        herm = [i for i in herm if i not in skew]
        if not herm:
            return out
        c, p = c[herm], p[herm]
    zero, negative = linalg._eig_limits(d[:, -1], d[:, 0])
    pos = d[:, -1] > zero  # item by item, the negation of linalg._not_positive
    rows = range(len(herm))
    d_pos = d
    if np.count_nonzero(pos) < len(pos):
        for i in np.flatnonzero(~pos).tolist():
            psd = d[i, -1] >= negative[i]
            reason, limit = (C_SINGULAR, zero[i]) if psd else (C_NOT_PSD, negative[i])
            out[herm[i]] = PairFactors(PairValidity(False, reason, float("nan")),
                                       float(d[i, -1]), float(limit), d=d[i])
        rows = np.flatnonzero(pos).tolist()
        if not rows:
            return out
        c, p, u, d_pos = c[pos], p[pos], u[pos], d[pos]
    b_inv = (u / np.sqrt(d_pos)[:, None, :]).conj().swapaxes(-1, -2)  # diag(1/sqrt(d)) U^H
    m = b_inv @ p @ b_inv.swapaxes(-1, -2)
    lambdas = np.linalg.svd(m, compute_uv=False)
    p_asym = linalg._asymmetry(p, hermitian=False, beside=c).tolist()
    b_inv, m, lambdas = linalg._sealed(b_inv), linalg._sealed(m), linalg._sealed(lambdas)
    for i, (r, max_lambda) in enumerate(zip(rows, lambdas[:, 0].tolist())):
        measured, limit = max_lambda, 1.0 + linalg.LAMBDA_TOL
        if p_asym[i] > linalg.SYM_RTOL:
            validity = PairValidity(False, P_NOT_SYMMETRIC, float("nan"))
            measured, limit = p_asym[i], linalg.SYM_RTOL
        elif max_lambda > limit:
            validity = PairValidity(False, SPECTRUM_EXCEEDS_ONE, max_lambda)
        else:
            validity = PairValidity(True, OK, max_lambda)
        out[herm[r]] = PairFactors(validity, measured, limit, d=d[r], b_inv=b_inv[i], m=m[i],
                                   lambdas=lambdas[i])
    return out


def _factor_pair(c: np.ndarray, p: np.ndarray) -> PairFactors:
    """Factor a pair of equal-shape non-empty complex matrices: _factor_pairs of a batch of one.

    C's eigendecomposition is hermitian_eig's, memoized on C's content, so a
    C factored by validate_pair, by a pair or by neeser_massey_bound is not
    factored again.
    """
    return _factor_pairs(c[None], p[None], _memoized_eighs)[0]


# Looks _factor_pair up on each miss, so the module's current one runs.
_factored_pair = linalg._memo(lambda c, p: _factor_pair(c, p))


def _gated_pair(cov, pcov) -> tuple[np.ndarray, np.ndarray]:
    """(C, P) through linalg's gate: non-empty square complex matrices of one shape."""
    cov = linalg.as_matrix(cov, square=True)
    pcov = linalg.as_matrix(pcov, square=True)
    if cov.shape != pcov.shape:
        raise DimensionMismatch(f"C and P shapes differ: {cov.shape} / {pcov.shape}")
    return cov, pcov


@dataclass(frozen=True)
class SecondOrderPair:
    """Mean, covariance and complementary covariance of a complex vector.

    Holds sealed copies of its arrays (the caller's stay the caller's), so
    the factorization cached in ``factors`` cannot go stale.
    """

    cov: np.ndarray
    pcov: np.ndarray
    mean: np.ndarray = None

    def __post_init__(self):
        cov, pcov = _gated_pair(self.cov, self.pcov)
        if self.mean is None:
            mean = np.zeros(cov.shape[0], dtype=complex)
        else:
            mean = linalg.as_matrix(np.reshape(self.mean, (1, -1)))[0]
            if mean.shape[0] != cov.shape[0]:
                raise DimensionMismatch("mean length must match C")
        object.__setattr__(self, "cov", linalg._sealed(cov))
        object.__setattr__(self, "pcov", linalg._sealed(pcov))
        object.__setattr__(self, "mean", linalg._sealed(mean))

    __reduce__ = linalg._rebuilt_from_fields

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    @cached_property
    def factors(self) -> PairFactors:
        """The pair's factorization, computed on first use.

        Memoized on the content of (cov, pcov): a pair with the bits of one
        factored recently shares its PairFactors.
        """
        return _factored_pair(self.cov, self.pcov)

    @cached_property
    def _sampling_factor(self) -> np.ndarray:
        """The eigenfactor sample_gaussian draws through, computed on first use."""
        eigs, vecs = np.linalg.eigh(real_covariance(self))
        return linalg._sealed(vecs * np.sqrt(np.clip(eigs, 0.0, None)))

    @classmethod
    def proper(cls, cov) -> "SecondOrderPair":
        """Pair with vanishing complementary covariance (proper vector)."""
        return cls(cov=cov, pcov=np.zeros_like(cov, dtype=complex))


def _factored_pairs(c, p) -> list[SecondOrderPair]:
    """The SecondOrderPairs of two (k, n, n) stacks, factored by one _factor_pairs call.

    Each pair holds sealed copies of its item and its factorization in
    ``factors``; no memo is read or filled.
    """
    c = np.asarray(c, dtype=complex)
    p = np.asarray(p, dtype=complex)
    pairs = [SecondOrderPair(cov=ci, pcov=pi) for ci, pi in zip(c, p)]
    for pair, factors in zip(pairs, _factor_pairs(c, p)):
        vars(pair)["factors"] = factors  # the cached_property's slot
    return pairs


@dataclass(frozen=True)
class SampleSet:
    """N complex n-vectors (rows) plus the seed that produced them.

    Holds a sealed copy of its array (the caller's stays the caller's), so
    the kNN self-search records the estimators cache per k (entropy) cannot
    go stale.
    """

    data: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "data", linalg._sealed(linalg.as_matrix(self.data)))
        object.__setattr__(self, "seed", linalg._int_at_least(self.seed, "seed", 0))

    __reduce__ = linalg._rebuilt_from_fields

    @cached_property
    def _searches(self) -> dict:
        """k -> the estimators' kNN self-search record (entropy._self_search)."""
        return {}

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def real_covariance(pair: SecondOrderPair) -> np.ndarray:
    """Covariance of the stacked real vector [Re x; Im x].

    Equals 0.5 * overline_map(C) + 0.5 * underline_map(P); symmetric for a
    Hermitian C and symmetric P.
    """
    s = 0.5 * linalg.overline_map(pair.cov) + 0.5 * linalg.underline_map(pair.pcov)
    return 0.5 * (s + s.T)


def pair_from_real_covariance(s) -> SecondOrderPair:
    """Recover the zero-mean (C, P) pair from a 2n x 2n real covariance.

    With blocks S = [[S11, S12], [S21, S22]]:
    C = (S11 + S22) + i (S21 - S12), P = (S11 - S22) + i (S21 + S12).
    Round-trips with real_covariance. Raises NotSymmetric / NotPositiveSemidefinite.
    """
    s = linalg.as_matrix(s, dtype=float, square=True)
    if s.shape[0] % 2 != 0:
        raise DimensionMismatch(f"expected a 2n x 2n real matrix, got {s.shape}")
    if not linalg._symmetric_within_tol(s, hermitian=False):
        raise NotSymmetric("real covariance must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (s + s.T))
    if linalg._negative(eigs[0], eigs[-1]):
        raise NotPositiveSemidefinite(f"negative eigenvalue {eigs[0]:.3e}")
    n = s.shape[0] // 2
    s11, s12 = s[:n, :n], s[:n, n:]
    s21, s22 = s[n:, :n], s[n:, n:]
    c = (s11 + s22) + 1j * (s21 - s12)
    p = (s11 - s22) + 1j * (s21 + s12)
    return SecondOrderPair(cov=c, pcov=p)


def circularity_spectrum(pair: SecondOrderPair) -> np.ndarray:
    """Circularity coefficients: singular values of B^-1 P B^-T, descending.

    B is any factor with B B^H = C; the spectrum does not depend on which.
    Read from the pair's cached factorization. Raises NotHermitian when C is
    not Hermitian, NotPositiveSemidefinite when C has a negative eigenvalue
    and SingularCovariance when C is singular (the coefficients are then
    undefined).
    """
    return pair.factors.spectrum().copy()


def validate_pair(c, p) -> PairValidity:
    """Admissibility of (C, P) as a covariance / complementary-covariance pair.

    Valid iff C is Hermitian, positive semidefinite and non-singular, P is
    symmetric, and every circularity coefficient is <= 1 (closed bound, with
    linalg.LAMBDA_TOL slack so round-off cannot flip the verdict). The first
    failed check names the reason. Each test is relative to the scale of the
    matrix it tests. It is ``SecondOrderPair(c, p).factors.validity``, read
    from the same content memo without building the pair, so a pair already
    built gives the same verdict without a second factorization, and a pair
    built next on the same arrays is not factored again.
    """
    return _factored_pair(*_gated_pair(c, p)).validity


def _spawn_seeds(seed: int, count: int) -> list[int]:
    """count independent child seeds of one seed, from SeedSequence(seed)."""
    seed = linalg._int_at_least(seed, "seed", 0)
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)]


def sample_gaussian(pair: SecondOrderPair, count: int, seed: int) -> SampleSet:
    """Draw N i.i.d. complex Gaussian vectors with the pair's moments.

    Deterministic given (pair, count, seed): a single
    default_rng(seed).standard_normal((count, 2n)) block is drawn in C order
    and pushed through the eigenfactor of the real covariance (cached on the
    pair). Negative eigenvalues of the real covariance (round-off at the
    lambda = 1 boundary) are clipped to zero, so degenerate pairs sample on
    their forced subspace.
    """
    count = linalg._int_at_least(count, "count")
    seed = linalg._int_at_least(seed, "seed", 0)
    pair.factors.require_valid()
    rng = np.random.default_rng(seed)
    xr = rng.standard_normal((count, 2 * pair.dim)) @ pair._sampling_factor.T
    xr += linalg.real_vector(pair.mean)
    data = linalg.complex_vector(xr)
    del xr  # free the float block before the set seals its copy of data
    return SampleSet(data=data, seed=seed)


def empirical_pair(samples: SampleSet) -> SecondOrderPair:
    """Sample mean and centered 1/N second moments of a sample set.

    C-hat is Hermitian and P-hat symmetric by construction. Requires at
    least two vectors.
    """
    if samples.count < 2:
        raise TooFewSamples("empirical_pair needs at least 2 samples")
    x = samples.data
    m = x.mean(axis=0)
    d = x - m
    n = samples.count
    c = d.T @ d.conj() / n
    p = d.T @ d / n
    c = 0.5 * (c + c.conj().T)
    p = 0.5 * (p + p.T)
    return SecondOrderPair(cov=c, pcov=p, mean=m)
