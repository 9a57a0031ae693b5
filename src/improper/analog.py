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
                            order zero, in log domain via scipy.special.i0e,
* divergence_to_analog:     kNN estimate of D(x || x_a) via the identity
                            D = h(reduced sheared rep) - h(full sheared rep),
                            i.e. the phase information left in the last
                            sheared phase given everything else,
* analog_entropy_gap:       h(x_a) - h(x) estimated from samples; equals the
                            divergence in distributional truth and is >= 0.

Only the Bessel functions (so the densities) and the kNN estimators load
scipy, on first call; circularize and analog_gaussian_model are numpy-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, second_order, transforms
from .entropy import DEFAULT_K, _knn_entropy_points, _knn_guard, knn_entropy
from .errors import (DegenerateConditional, DimensionMismatch, DomainError, InvalidPair,
                     TiedSamples)

# Threshold for declaring the phase conditional degenerate: the honest
# estimate is >= 0 up to a few hundredths of a nat of estimator noise, while
# a point-mass phase sends the estimate to -infinity like -log N.
DEGENERATE_THRESHOLD = -0.5


def circularize(samples: second_order.SampleSet, seed: int) -> second_order.SampleSet:
    """Rotate each sample by an independent uniform phase.

    Consumes exactly one uniform deviate per sample vector, in data order,
    from default_rng(seed); deterministic given the seed. The output keeps
    the input's covariance (in distribution) and has vanishing complementary
    covariance.
    """
    seed = linalg._int_at_least(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    psi = rng.random(samples.count)
    return second_order.SampleSet(data=samples.data * np.exp(2j * np.pi * psi)[:, None], seed=seed)


def bessel_i0(x) -> np.ndarray | float:
    """Modified Bessel function I0 for finite x >= 0: exp(log_bessel_i0(x))."""
    return np.exp(log_bessel_i0(x))


def log_bessel_i0(x) -> np.ndarray | float:
    """log I0(x) for finite x >= 0 without overflow (I0 grows like e^x).

    x + log(i0e(x)) with scipy's exponentially scaled I0, loaded on first call.
    Raises DomainError for a negative or non-finite argument.
    """
    from scipy.special import i0e

    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise DomainError("bessel_i0 expects finite non-negative arguments")
    out = x + np.log(i0e(x))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AnalogGaussianModel:
    """Closed-form machinery for the analog of a zero-mean improper Gaussian.

    whitener maps x to standardized coordinates y = W x in which the Gaussian
    has identity covariance and diagonal real complementary covariance
    diag(lambdas): W = Q^H B^-1, with the whitener B^-1 = diag(1/sqrt(d)) U^H
    and the Takagi factorization B^-1 P B^-T = Q diag(lambdas) Q^T, both
    read from the pair's cached factorization. The Takagi factors come from
    one eigendecomposition of the real embedding of B^-1 P B^-T, so
    W C W^H = I and W P W^T = diag(lambdas) hold to round-off, also for
    repeated or nearly repeated lambdas.
    """

    pair: second_order.SecondOrderPair
    whitener: np.ndarray
    lambdas: np.ndarray


def analog_gaussian_model(pair: second_order.SecondOrderPair) -> AnalogGaussianModel:
    """Build the standardized model for a zero-mean pair with all lambda < 1."""
    if np.count_nonzero(pair.mean):
        raise InvalidPair("NONZERO_MEAN", "analog Gaussian density requires zero mean")
    factors = pair.factors
    factors.spectrum_below_one()
    fac = factors.takagi
    whitener = fac.q.conj().T @ factors.b_inv
    return AnalogGaussianModel(pair=pair, whitener=whitener, lambdas=fac.sigma)


def analog_gaussian_log_density(model: AnalogGaussianModel, x) -> np.ndarray | float:
    """log density of the circular analog of the model's Gaussian at x.

    x may be a single complex n-vector or an (..., n) batch; a wrong last
    axis raises DimensionMismatch and a non-finite entry DomainError. In
    standardized coordinates y = W x the density is

        pi^-n prod(1 - lambda_i^2)^-1/2
        * exp(-sum |y_i|^2 / (1 - lambda_i^2))
        * I0(|sum d_i y_i^2|),   d_i = lambda_i / (1 - lambda_i^2),

    and the |det W|^2 change-of-variables factor converts back to x: with Q
    unitary, 2 log|det W| = -sum log d over the eigenvalues d of C, which
    the pair's factorization already holds.
    """
    lam = model.lambdas
    n = lam.size
    x = np.asarray(x, dtype=complex)
    if x.shape[-1:] != (n,):
        raise DimensionMismatch(f"expected points with last axis {n}, got shape {x.shape}")
    linalg.as_matrix(x.reshape(-1, n))  # DomainError for a non-finite entry
    y = x @ model.whitener.T
    one_minus = 1.0 - lam**2
    d = lam / one_minus
    quad = np.sum((y.real**2 + y.imag**2) / one_minus, axis=-1)
    bessel_arg = np.abs(np.sum(d * y**2, axis=-1))
    log_det_c = np.sum(np.log(model.pair.factors.cov_eigenvalues()))
    log_norm = -log_det_c - n * np.log(np.pi) - 0.5 * np.sum(np.log(one_minus))
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

    Unlike knn_entropy and knn_kl_divergence, this estimate does not rescale
    samples of extreme magnitude to a power-of-two scale: the radii and the
    phases share no unit, and the phases live on fixed [0, 1) circles.
    """
    _knn_guard(k, samples)
    n = samples.n
    coords = _sheared_coordinates(samples)
    joint_box = np.concatenate([np.zeros(n), np.ones(n)])
    h_joint = _knn_entropy_points(coords, k, boxsize=joint_box)
    reduced = coords[:, : 2 * n - 1]
    reduced_box = None if n == 1 else np.concatenate([np.zeros(n), np.ones(n - 1)])
    try:
        h_reduced = _knn_entropy_points(reduced, k, boxsize=reduced_box)
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
    rotated = circularize(samples, seed)
    h_rot = knn_entropy(rotated, k)
    h_orig = knn_entropy(samples, k)
    return float(h_rot.value - h_orig.value)
