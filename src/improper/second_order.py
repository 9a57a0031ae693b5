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
  factorization of M (the canonical coordinates) is taken on first use,
* circularity_spectrum: the singular values lambda_i of M; a valid pair has
  every lambda_i <= 1,
* validate_pair: the full admissibility check with a machine-readable reason,
* sample_gaussian / empirical_pair: seeded Gaussian sampling and 1/N moment
  estimation.

A SecondOrderPair holds read-only copies of C and P and factors them on
first use (``pair.factors``); every later spectrum, validity verdict,
entropy, analog model or capacity solve of that pair reads the same
factorization. Functions given raw arrays, such as validate_pair(c, p),
factor them once per call. The validity tests are relative to the scale of
the matrix they test (the thresholds are linalg's), so rescaling a pair
does not change its verdict.
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


def _check_pair_shapes(cov, pcov) -> None:
    """C and P must be non-empty square matrices of one shape (DimensionMismatch)."""
    if cov.shape[0] != cov.shape[1] or cov.shape != pcov.shape or cov.size == 0:
        raise DimensionMismatch(
            "C and P must be non-empty and square with equal shapes, "
            f"got {cov.shape} / {pcov.shape}"
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PairValidity:
    valid: bool
    reason: str
    max_lambda: float


@dataclass(frozen=True)
class PairFactors:
    """The one factorization of a pair (C, P); built by _factor_pair.

    d: eigenvalues of C, descending (None when C is not Hermitian).
    b_inv: the whitener B^-1 = diag(1/sqrt(d)) U^H, with B B^H = C.
    m: the coherence matrix B^-1 P B^-T; lambdas: its singular values,
    descending (b_inv, m and lambdas are None unless C is positive definite).
    validity: the admissibility verdict of the pair.
    error: (exception type, message) that spectrum() raises when the
    circularity coefficients are undefined, else None.
    All arrays are read-only.
    """

    validity: PairValidity
    d: np.ndarray | None = None
    b_inv: np.ndarray | None = None
    m: np.ndarray | None = None
    lambdas: np.ndarray | None = None
    error: tuple | None = None

    def _raise(self):
        kind, message = self.error
        raise kind(message)

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

    def spectrum_below_one(self) -> np.ndarray:
        """Circularity coefficients of a valid pair whose entropy is finite.

        Raises InvalidPair for an invalid pair and SpectrumAtOne when the
        largest coefficient is at 1 within linalg.LAMBDA_TOL.
        """
        if not self.validity.valid:
            raise InvalidPair(self.validity.reason)
        if linalg._at_one(self.validity.max_lambda):
            raise SpectrumAtOne(f"max circularity coefficient {self.validity.max_lambda:.12g}")
        return self.lambdas

    @cached_property
    def takagi(self) -> linalg.TakagiFactorization:
        """Takagi factorization M = Q diag(sigma) Q^T, computed on first use."""
        self.spectrum()  # raises when C is not positive definite (M undefined)
        fac = linalg.takagi(0.5 * (self.m + self.m.T))
        _read_only(fac.q)
        _read_only(fac.sigma)
        return fac


def _factor_pair(c: np.ndarray, p: np.ndarray) -> PairFactors:
    """Factor a pair of equal-shape non-empty complex matrices once.

    Checks that C is Hermitian, takes one eigendecomposition of C, forms
    B^-1 and M = B^-1 P B^-T, and takes one values-only SVD of M. The
    verdict is that of validate_pair: the first failed check names the
    reason. Each test is relative to the scale of the matrix it tests.
    """
    try:
        u, d = linalg.hermitian_eig(c)
    except NotHermitian as exc:
        return PairFactors(PairValidity(False, C_NOT_HERMITIAN, float("nan")),
                           error=(NotHermitian, str(exc)))
    _read_only(d)
    if linalg._not_positive(d[-1], d[0]):
        reason = C_NOT_PSD if linalg._negative(d[-1], d[0]) else C_SINGULAR
        return PairFactors(
            PairValidity(False, reason, float("nan")), d=d,
            error=(SingularCovariance,
                   f"C smallest eigenvalue {d[-1]:.3e} below singularity threshold"))
    b_inv = (u / np.sqrt(d)).conj().T  # B^-1 = diag(1/sqrt(d)) U^H
    m = b_inv @ p @ b_inv.T
    lambdas = np.linalg.svd(m, compute_uv=False)
    max_lambda = float(lambdas[0])
    if not linalg._symmetric_within_tol(p, hermitian=False):
        validity = PairValidity(False, P_NOT_SYMMETRIC, float("nan"))
    elif max_lambda > 1.0 + linalg.LAMBDA_TOL:
        validity = PairValidity(False, SPECTRUM_EXCEEDS_ONE, max_lambda)
    else:
        validity = PairValidity(True, OK, max_lambda)
    return PairFactors(validity, d=d, b_inv=_read_only(b_inv), m=_read_only(m),
                       lambdas=_read_only(lambdas))


@dataclass(frozen=True)
class SecondOrderPair:
    """Mean, covariance and complementary covariance of a complex vector.

    Holds read-only copies of its arrays (the caller's stay writeable and
    unshared), so the factorization cached in ``factors`` cannot go stale.
    """

    cov: np.ndarray
    pcov: np.ndarray
    mean: np.ndarray = None

    def __post_init__(self):
        cov = np.array(linalg.as_complex(self.cov))
        pcov = np.array(linalg.as_complex(self.pcov))
        _check_pair_shapes(cov, pcov)
        if self.mean is None:
            mean = np.zeros(cov.shape[0], dtype=complex)
        else:
            mean = np.array(self.mean, dtype=complex).reshape(-1)
            if mean.shape[0] != cov.shape[0]:
                raise DimensionMismatch("mean length must match C")
        object.__setattr__(self, "cov", _read_only(cov))
        object.__setattr__(self, "pcov", _read_only(pcov))
        object.__setattr__(self, "mean", _read_only(mean))

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    @cached_property
    def factors(self) -> PairFactors:
        """The pair's factorization, computed on first use."""
        return _factor_pair(self.cov, self.pcov)

    @classmethod
    def proper(cls, cov) -> "SecondOrderPair":
        """Pair with vanishing complementary covariance (proper vector)."""
        cov = linalg.as_complex(cov)
        return cls(cov=cov, pcov=np.zeros_like(cov))


@dataclass(frozen=True)
class SampleSet:
    """N complex n-vectors (rows) plus the seed that produced them."""

    data: np.ndarray
    seed: int = 0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2:
            raise ValueError("sample data must be an (N, n) array")
        if data.shape[0] < 1:
            raise ValueError("sample set must contain at least one vector")
        if not np.all(np.isfinite(data.real)) or not np.all(np.isfinite(data.imag)):
            raise ValueError("sample entries must be finite")
        object.__setattr__(self, "data", data)

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
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0 or s.size == 0:
        raise DimensionMismatch("expected a non-empty square 2n x 2n real matrix")
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
    not Hermitian and SingularCovariance when C is singular (the
    coefficients are then undefined).
    """
    return pair.factors.spectrum().copy()


def validate_pair(c, p) -> PairValidity:
    """Admissibility of (C, P) as a covariance / complementary-covariance pair.

    Valid iff C is Hermitian, positive semidefinite and non-singular, P is
    symmetric, and every circularity coefficient is <= 1 (closed bound, with
    linalg.LAMBDA_TOL slack so round-off cannot flip the verdict). The first
    failed check names the reason. Each test is relative to the scale of the
    matrix it tests. For a SecondOrderPair, ``pair.factors.validity`` is the
    same verdict without a second factorization.
    """
    c = linalg.as_complex(c)
    p = linalg.as_complex(p)
    _check_pair_shapes(c, p)
    return _factor_pair(c, p).validity


def sample_gaussian(pair: SecondOrderPair, count: int, seed: int) -> SampleSet:
    """Draw N i.i.d. complex Gaussian vectors with the pair's moments.

    Deterministic given (pair, count, seed): a single
    default_rng(seed).standard_normal((count, 2n)) block is drawn in C order
    and pushed through the eigenfactor of the real covariance. Negative
    eigenvalues of the real covariance (round-off at the lambda = 1 boundary)
    are clipped to zero, so degenerate pairs sample on their forced subspace.
    """
    v = pair.factors.validity
    if not v.valid:
        raise InvalidPair(v.reason)
    s = real_covariance(pair)
    eigs, vecs = np.linalg.eigh(s)
    factor = vecs * np.sqrt(np.clip(eigs, 0.0, None))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(count), 2 * pair.dim))
    xr = z @ factor.T + linalg.real_vector(pair.mean)
    return SampleSet(data=linalg.complex_vector(xr), seed=int(seed))


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
