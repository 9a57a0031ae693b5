"""Circular analogs of complex random vectors.

The circular analog of x is x_a = exp(i 2 pi psi) x with psi uniform on
[0, 1) and independent of x. Among all circular vectors it is the one
closest to x in Kullback-Leibler divergence, and it keeps the covariance C
while erasing the complementary covariance P.

This module provides:

* circularize:              seeded sampling of the analog from samples of x,
* analog_gaussian_density:  the closed-form density of the analog of a
                            zero-mean improper Gaussian (a Bessel-I0 form),
* bessel_i0 / log_bessel_i0: the modified Bessel function of the first kind,
                            order zero, with a log-domain path,
* divergence_to_analog:     kNN estimate of D(x || x_a) via the identity
                            D = h(reduced sheared rep) - h(full sheared rep),
                            i.e. the phase information left in the last
                            sheared phase given everything else,
* analog_entropy_gap:       h(x_a) - h(x) estimated from samples; equals the
                            divergence in distributional truth and is >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import second_order, transforms
from .entropy import (
    DEFAULT_K,
    _grouped_jackknife_stderr,
    _knn_entropy_points,
    knn_entropy,
)
from .errors import (
    DegenerateConditional,
    InvalidPair,
    SpectrumAtOne,
    TiedSamples,
    TooFewSamples,
)

# Threshold for declaring the phase conditional degenerate: the honest
# estimate is >= 0 up to a few hundredths of a nat of estimator noise, while
# a point-mass phase sends the estimate to -infinity like -log N.
DEGENERATE_THRESHOLD = -0.5

_I0_SWITCH = 15.0  # power series below, asymptotic series above


def circularize(samples: second_order.SampleSet, seed: int) -> second_order.SampleSet:
    """Rotate each sample by an independent uniform phase.

    Consumes exactly one uniform deviate per sample vector, in data order,
    from default_rng(seed); deterministic given the seed. The output keeps
    the input's covariance (in distribution) and has vanishing complementary
    covariance.
    """
    rng = np.random.default_rng(seed)
    psi = rng.random(samples.count)
    data = samples.data * np.exp(2j * np.pi * psi)[:, None]
    return second_order.SampleSet(data=data, seed=int(seed))


def bessel_i0(x) -> np.ndarray | float:
    """Modified Bessel function I0 for x >= 0, relative error <= 1e-12.

    Power series sum_m (x/2)^(2m) / (m!)^2 up to x = 15; beyond that the
    asymptotic form e^x / sqrt(2 pi x) times a correction series, truncated
    at its smallest term. Both branches agree to ~1e-13 at the switch point.
    """
    return np.exp(log_bessel_i0(x))


def log_bessel_i0(x) -> np.ndarray | float:
    """log I0(x) for x >= 0 without overflow (I0 grows like e^x)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0):
        raise ValueError("bessel_i0 expects non-negative arguments")
    out = np.empty_like(x)
    small = x <= _I0_SWITCH
    if np.any(small):
        out[small] = np.log(_i0_power_series(x[small]))
    if np.any(~small):
        xl = x[~small]
        out[~small] = xl - 0.5 * np.log(2.0 * np.pi * xl) + np.log(_i0_asymptotic_series(xl))
    return float(out[0]) if scalar else out


def _i0_power_series(x):
    # sum_m ((x/2)^2)^m / (m!)^2, term ratio q / (m+1)^2 with q = (x/2)^2
    q = (0.5 * x) ** 2
    total = np.ones_like(x)
    term = np.ones_like(x)
    for m in range(1, 200):
        term = term * q / (m * m)
        total += term
        if np.all(term <= 1e-17 * total):
            break
    return total


def _i0_asymptotic_series(x):
    # correction series sum_k a_k / x^k with a_0 = 1, a_k = ((2k-1)!!)^2 / (8^k k!);
    # asymptotic, so stop per-entry at the smallest term (or when negligible)
    total = np.ones_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    active = np.ones_like(x, dtype=bool)
    for k in range(1, 60):
        term = term * ((2 * k - 1) ** 2) / (8.0 * k * x)
        tabs = np.abs(term)
        active &= (tabs < prev) & (tabs > 1e-17 * total)
        total = np.where(active, total + term, total)
        prev = tabs
        if not np.any(active):
            break
    return total


@dataclass(frozen=True)
class AnalogGaussianModel:
    """Closed-form machinery for the analog of a zero-mean improper Gaussian.

    whitener maps x to standardized coordinates y = W x in which the Gaussian
    has identity covariance and diagonal real complementary covariance
    diag(lambdas): W = Q^H B^-1, with the whitener B^-1 = diag(1/sqrt(d)) U^H
    and the Takagi factorization B^-1 P B^-T = Q diag(lambdas) Q^T, both
    read from the pair's cached factorization.
    """

    pair: second_order.SecondOrderPair
    whitener: np.ndarray
    lambdas: np.ndarray


def analog_gaussian_model(pair: second_order.SecondOrderPair) -> AnalogGaussianModel:
    """Build the standardized model for a zero-mean pair with all lambda < 1."""
    if np.max(np.abs(pair.mean)) > 0.0:
        raise InvalidPair("NONZERO_MEAN", "analog Gaussian density requires zero mean")
    factors = pair.factors
    if not factors.validity.valid:
        raise InvalidPair(factors.validity.reason)
    fac = factors.takagi
    lambdas = fac.sigma
    if lambdas[0] >= 1.0 - 1e-10:
        raise SpectrumAtOne(f"max circularity coefficient {lambdas[0]:.12g}")
    whitener = fac.q.conj().T @ factors.b_inv
    return AnalogGaussianModel(pair=pair, whitener=whitener, lambdas=lambdas)


def analog_gaussian_log_density(model: AnalogGaussianModel, x) -> np.ndarray | float:
    """log density of the circular analog of the model's Gaussian at x.

    x may be a single complex n-vector or an (..., n) batch. In standardized
    coordinates y = W x the density is

        pi^-n prod(1 - lambda_i^2)^-1/2
        * exp(-sum |y_i|^2 / (1 - lambda_i^2))
        * I0(|sum d_i y_i^2|),   d_i = lambda_i / (1 - lambda_i^2),

    and the |det W|^2 change-of-variables factor converts back to x.
    """
    x = np.asarray(x, dtype=complex)
    y = x @ model.whitener.T
    lam = model.lambdas
    one_minus = 1.0 - lam**2
    d = lam / one_minus
    quad = np.sum((y.real**2 + y.imag**2) / one_minus, axis=-1)
    bessel_arg = np.abs(np.sum(d * y**2, axis=-1))
    _, logdet = np.linalg.slogdet(model.whitener)
    n = lam.size
    log_norm = 2.0 * logdet - n * np.log(np.pi) - 0.5 * np.sum(np.log(one_minus))
    out = log_norm - quad + log_bessel_i0(bessel_arg)
    if np.ndim(out) == 0:
        return float(out)
    return out


def analog_gaussian_density(model: AnalogGaussianModel, x) -> np.ndarray | float:
    """Density of the circular analog of the model's Gaussian at x."""
    return np.exp(analog_gaussian_log_density(model, x))


def _sheared_coordinates(samples: second_order.SampleSet) -> np.ndarray:
    """(N, 2n) array of sheared-polar coordinates (r_1..r_n, phi'_1..phi'_n-1, theta)."""
    sheared = transforms.polar_to_sheared(transforms.real_to_polar(samples.data))
    return np.concatenate([sheared.r, sheared.phi], axis=-1)


def divergence_to_analog(samples: second_order.SampleSet, k: int = DEFAULT_K) -> float:
    """kNN estimate of D(x || x_a) from samples of x, in nats (clamped >= 0).

    The divergence to the circular analog equals the phase information left
    in the last sheared phase: the entropy of the reduced sheared
    representation minus the entropy of the full one. Both entropies are
    estimated with the same kNN machinery; phase coordinates live on [0, 1)
    circles, so the neighbor search uses wrap-around distances there.

    Raises DegenerateConditional when the reduced representation is itself
    degenerate (e.g. every sample has the same modulus): its points tie, so
    its entropy estimate is -infinity while the joint stays finite. It is
    also raised when the estimate plunges far below 0 without exact ties.
    Ties in the full representation (repeated samples) raise TiedSamples.
    """
    if samples.count < 100 * k:
        raise TooFewSamples(f"need at least {100 * k} samples for k={k}")
    n = samples.n
    coords = _sheared_coordinates(samples)
    joint_box = np.concatenate([np.zeros(n), np.ones(n)])
    h_joint, _ = _knn_entropy_points(coords, k, boxsize=joint_box)
    reduced = coords[:, : 2 * n - 1]
    reduced_box = None if n == 1 else np.concatenate([np.zeros(n), np.ones(n - 1)])
    try:
        h_reduced, _ = _knn_entropy_points(reduced, k, boxsize=reduced_box)
    except TiedSamples as exc:
        raise DegenerateConditional(
            f"reduced representation is degenerate ({exc}); "
            "the phase distribution appears to be a point mass"
        ) from exc
    est = h_reduced - h_joint
    if est < DEGENERATE_THRESHOLD:
        raise DegenerateConditional(
            f"conditional phase entropy estimate diverged ({est:.3f} nats); "
            "the phase distribution appears to be a point mass"
        )
    return max(0.0, float(est))


def analog_entropy_gap(
    samples: second_order.SampleSet, k: int = DEFAULT_K, seed: int = 0
) -> float:
    """h(circularize(samples)) - h(samples), estimated by kNN.

    Non-negative in distributional truth, zero exactly for circular inputs,
    and equal to divergence_to_analog for the same distribution.
    """
    if samples.count < 100 * k:
        raise TooFewSamples(f"need at least {100 * k} samples for k={k}")
    rotated = circularize(samples, seed)
    h_rot = knn_entropy(rotated, k)
    h_orig = knn_entropy(samples, k)
    return float(h_rot.value - h_orig.value)
