"""Second-order structure of complex random vectors.

A complex random vector x carries a covariance C = E[(x-m)(x-m)^H] and a
complementary (pseudo-)covariance P = E[(x-m)(x-m)^T]. This module builds,
validates, embeds and samples such (C, P) pairs:

* real_covariance / pair_from_real_covariance: the 2n x 2n real covariance
  of the stacked [Re x; Im x] vector and its inverse map,
* circularity_spectrum: the singular values lambda_i of B^-1 P B^-T where
  B B^H = C; a valid pair has every lambda_i <= 1,
* validate_pair: the full admissibility check with a machine-readable reason,
* sample_gaussian / empirical_pair: seeded Gaussian sampling and 1/N moment
  estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InvalidPair,
    NotPositiveSemidefinite,
    NotSymmetric,
    SingularCovariance,
    TooFewSamples,
)

# validate_pair reasons (also printed verbatim by the CLI)
OK = "OK"
C_NOT_HERMITIAN = "C_NOT_HERMITIAN"
C_NOT_PSD = "C_NOT_PSD"
C_SINGULAR = "C_SINGULAR"
P_NOT_SYMMETRIC = "P_NOT_SYMMETRIC"
SPECTRUM_EXCEEDS_ONE = "SPECTRUM_EXCEEDS_ONE"

# The admissibility criterion is closed (lambda <= 1), so round-off must not
# flip verdicts at the boundary.
LAMBDA_TOL = 1e-10
PSD_RTOL = 1e-10
SINGULAR_RTOL = 1e-12


def _check_pair_shapes(cov, pcov) -> None:
    """C and P must be non-empty square matrices of one shape (DimensionMismatch)."""
    if cov.shape[0] != cov.shape[1] or cov.shape != pcov.shape or cov.size == 0:
        raise DimensionMismatch(
            "C and P must be non-empty and square with equal shapes, "
            f"got {cov.shape} / {pcov.shape}"
        )


@dataclass(frozen=True)
class SecondOrderPair:
    """Mean, covariance and complementary covariance of a complex vector."""

    cov: np.ndarray
    pcov: np.ndarray
    mean: np.ndarray = None

    def __post_init__(self):
        cov = linalg.as_complex(self.cov)
        pcov = linalg.as_complex(self.pcov)
        _check_pair_shapes(cov, pcov)
        mean = self.mean
        if mean is None:
            mean = np.zeros(cov.shape[0], dtype=complex)
        else:
            mean = np.asarray(mean, dtype=complex).reshape(-1)
            if mean.shape[0] != cov.shape[0]:
                raise DimensionMismatch("mean length must match C")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "pcov", pcov)
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    @classmethod
    def proper(cls, cov) -> "SecondOrderPair":
        """Pair with vanishing complementary covariance (proper vector)."""
        cov = linalg.as_complex(cov)
        return cls(cov=cov, pcov=np.zeros_like(cov))


@dataclass(frozen=True)
class PairValidity:
    valid: bool
    reason: str
    max_lambda: float


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
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
        raise DimensionMismatch("expected a square 2n x 2n real matrix")
    scale = max(np.linalg.norm(s), linalg.ABS_FLOOR)
    if np.linalg.norm(s - s.T) > linalg.SYM_RTOL * scale:
        raise NotSymmetric("real covariance must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (s + s.T))
    if eigs[0] < -PSD_RTOL * max(abs(eigs[-1]), linalg.ABS_FLOOR):
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
    Raises SingularCovariance when C is singular (the coefficients are then
    undefined).
    """
    u, d = linalg.hermitian_eig(pair.cov)
    scale = max(abs(d[0]), abs(d[-1]), linalg.ABS_FLOOR)
    if d[-1] <= SINGULAR_RTOL * scale:
        raise SingularCovariance(
            f"C smallest eigenvalue {d[-1]:.3e} below singularity threshold"
        )
    b = u * np.sqrt(d)
    b_inv = (u / np.sqrt(d)).conj().T  # B^-1 = diag(1/sqrt(d)) U^H
    m = b_inv @ pair.pcov @ b_inv.T
    return np.linalg.svd(m, compute_uv=False)


def validate_pair(c, p) -> PairValidity:
    """Admissibility of (C, P) as a covariance / complementary-covariance pair.

    Valid iff C is Hermitian, positive semidefinite and non-singular, P is
    symmetric, and every circularity coefficient is <= 1 (closed bound, with
    1e-10 slack so round-off cannot flip the verdict). The first failed check
    names the reason.
    """
    c = linalg.as_complex(c)
    p = linalg.as_complex(p)
    _check_pair_shapes(c, p)
    c_scale = max(np.linalg.norm(c), linalg.ABS_FLOOR)
    if np.linalg.norm(c - c.conj().T) > linalg.SYM_RTOL * c_scale:
        return PairValidity(False, C_NOT_HERMITIAN, float("nan"))
    eigs = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    eig_scale = max(abs(eigs[0]), abs(eigs[-1]), linalg.ABS_FLOOR)
    if eigs[0] < -PSD_RTOL * eig_scale:
        return PairValidity(False, C_NOT_PSD, float("nan"))
    if eigs[0] <= SINGULAR_RTOL * eig_scale:
        return PairValidity(False, C_SINGULAR, float("nan"))
    p_scale = max(np.linalg.norm(p), linalg.ABS_FLOOR)
    if np.linalg.norm(p - p.T) > linalg.SYM_RTOL * p_scale:
        return PairValidity(False, P_NOT_SYMMETRIC, float("nan"))
    lambdas = circularity_spectrum(SecondOrderPair(cov=c, pcov=p))
    max_lambda = float(lambdas[0]) if lambdas.size else 0.0
    if max_lambda > 1.0 + LAMBDA_TOL:
        return PairValidity(False, SPECTRUM_EXCEEDS_ONE, max_lambda)
    return PairValidity(True, OK, max_lambda)


def underline_P_eigen_check(pair: SecondOrderPair):
    """Eigenvalues of underline_map(P) next to the singular values of P.

    The eigenvalues come in plus/minus pairs: the multiset {+sigma_i} U {-sigma_i}.
    Returns (eigs descending, sigma descending). Raises NotSymmetric.
    """
    p = pair.pcov
    scale = max(np.linalg.norm(p), linalg.ABS_FLOOR)
    if np.linalg.norm(p - p.T) > linalg.SYM_RTOL * scale:
        raise NotSymmetric("P must be symmetric")
    eigs = np.linalg.eigvalsh(underline_sym(p))
    sigma = np.linalg.svd(p, compute_uv=False)
    return eigs[::-1], sigma


def underline_sym(p) -> np.ndarray:
    # symmetrized underline embedding (exact for symmetric P)
    u = linalg.underline_map(p)
    return 0.5 * (u + u.T)


def sample_gaussian(pair: SecondOrderPair, count: int, seed: int) -> SampleSet:
    """Draw N i.i.d. complex Gaussian vectors with the pair's moments.

    Deterministic given (pair, count, seed): a single
    default_rng(seed).standard_normal((count, 2n)) block is drawn in C order
    and pushed through the eigenfactor of the real covariance. Negative
    eigenvalues of the real covariance (round-off at the lambda = 1 boundary)
    are clipped to zero, so degenerate pairs sample on their forced subspace.
    """
    v = validate_pair(pair.cov, pair.pcov)
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
