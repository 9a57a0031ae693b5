"""Capacity of the deterministic linear channel y = Hx + z with improper
Gaussian noise, in the high-SNR regime where the water level covers every
eigenchannel.

The closed form solves

    capacity = 2 log|det H| + n log(S + tr(H^-1 C_z H^-H))
               - log det C_z - 0.5 sum log(1 - lambda_i^2) - n log n

with optimal input C_x = L I - H^-1 C_z H^-H (uniform water level
L = (S + tr)/n) and P_x = -H^-1 P_z H^-T: the input's complementary
covariance actively cancels the noise's. capacity_loss quantifies the rate
forfeited by a transceiver designed as if the noise were proper; it is
always below n log(2/sqrt(3)).

A ChannelSpec is immutable and solved once, on first use: the assumption
checks, the singular values of H, H^-1 and H^-1 C_z H^-H are cached on the
spec (ChannelSpec.factors), and the noise pair's own cached factorization
supplies its validity, eigenvalues and circularity coefficients, so
check_assumptions, solve_capacity and capacity_loss on one spec share them.

Out-of-assumption specs are rejected with a precise violation list rather
than approximated: no general low-SNR water-filling is implemented, because
the closed form above relies on the level exceeding every noise eigenvalue.

Monte Carlo helpers estimate mutual information I(x; y) = h(y) - h(z) by
kNN on simulated channel outputs (noise entropy in closed form), and check
that circularizing a non-circular input cannot lower the MI through a
proper-noise channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, second_order
from .analog import circularize
from .entropy import (
    DEFAULT_K,
    KNN_ESTIMATE,
    EntropyValue,
    complex_gaussian_entropy,
    knn_entropy,
)
from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    InvalidPair,
    NoiseNotCircular,
    PowerExceeded,
    TooFewSamples,
)

# Violation names
H_SINGULAR = "H_SINGULAR"
NOISE_MEAN_NONZERO = "NOISE_MEAN_NONZERO"
NOISE_PAIR_INVALID = "NOISE_PAIR_INVALID"
NOISE_COV_SINGULAR = "NOISE_COV_SINGULAR"
SPECTRUM_AT_ONE = "SPECTRUM_AT_ONE"
HIGH_SNR = "HIGH_SNR"


@dataclass(frozen=True)
class ChannelSpec:
    """Square channel matrix, zero-mean noise pair, average power budget.

    Holds a read-only copy of H; the noise pair is immutable too, so the
    solve cached in ``factors`` cannot go stale.
    """

    h: np.ndarray
    noise: second_order.SecondOrderPair
    power: float

    def __post_init__(self):
        h = np.array(linalg.as_complex(self.h))
        if h.shape[0] != h.shape[1]:
            raise DimensionMismatch("channel matrix must be square")
        if h.shape[0] != self.noise.dim:
            raise DimensionMismatch("channel and noise dimensions differ")
        if not np.isfinite(self.power) or self.power < 0:
            raise ValueError("power budget must be a non-negative real")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "power", float(self.power))

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @cached_property
    def factors(self) -> "ChannelFactors":
        """The spec's one solve, computed on first use."""
        return _factor_channel(self)


@dataclass(frozen=True)
class Violation:
    """One failed solver assumption, with the measured quantity and its limit."""

    name: str
    measured: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class ChannelFactors:
    """What every capacity quantity of one spec reads.

    violations: the assumption list of check_assumptions. h_sv: singular
    values of H. h_inv = H^-1 and g = H^-1 C_z H^-H (the noise referred to
    the channel input), with g_norm = ||g||_2: None / nan when a violation
    stopped the checks before they were needed.
    """

    violations: tuple
    h_sv: np.ndarray
    h_inv: np.ndarray | None = None
    g: np.ndarray | None = None
    g_norm: float = float("nan")


@dataclass(frozen=True)
class CapacityResult:
    capacity_nats: float
    input_pair: second_order.SecondOrderPair
    water_level: float
    spectrum: np.ndarray  # noise circularity coefficients


@dataclass(frozen=True)
class CapacityLossResult:
    delta_c_nats: float
    mus: np.ndarray


def check_assumptions(spec: ChannelSpec) -> list[Violation]:
    """All solver assumptions, each reported with its measured quantity.

    Empty list = admissible: H non-singular, noise zero-mean with valid
    non-singular (C_z, P_z), every noise circularity coefficient strictly
    below 1, and the high-SNR condition S >= 2n * ||H^-1 C_z H^-H||_2
    (boundary included). Read from the spec's cached solve.
    """
    return list(spec.factors.violations)


def _factor_channel(spec: ChannelSpec) -> ChannelFactors:
    """Check the assumptions once, keeping the factors the solvers read."""
    out = []
    sv = np.linalg.svd(spec.h, compute_uv=False)
    sv.flags.writeable = False
    h_ok = not linalg._not_positive(sv[-1], sv[0])
    if not h_ok:
        out.append(Violation(H_SINGULAR, float(sv[-1]), float(linalg.EIG_RTOL * sv[0]),
                             "channel matrix numerically singular"))
    mean_mag = float(np.max(np.abs(spec.noise.mean))) if spec.noise.dim else 0.0
    if mean_mag > 0.0:
        out.append(Violation(NOISE_MEAN_NONZERO, mean_mag, 0.0, "noise must be zero-mean"))
    v = spec.noise.factors.validity
    if v.reason == second_order.C_SINGULAR:
        out.append(Violation(NOISE_COV_SINGULAR, 0.0, 0.0, "noise covariance singular"))
        return ChannelFactors(tuple(out), sv)
    if v.reason in (second_order.C_NOT_HERMITIAN, second_order.C_NOT_PSD,
                    second_order.P_NOT_SYMMETRIC):
        out.append(Violation(NOISE_PAIR_INVALID, float("nan"), float("nan"), v.reason))
        return ChannelFactors(tuple(out), sv)
    # valid pair or SPECTRUM_EXCEEDS_ONE: max_lambda is measured either way
    if linalg._at_one(v.max_lambda):
        out.append(Violation(SPECTRUM_AT_ONE, float(v.max_lambda), 1.0 - linalg.LAMBDA_TOL,
                             "noise circularity coefficient at or beyond 1"))
    if not h_ok:
        return ChannelFactors(tuple(out), sv)
    h_inv = np.linalg.inv(spec.h)
    g = h_inv @ spec.noise.cov @ h_inv.conj().T
    g = 0.5 * (g + g.conj().T)
    g_norm = linalg.operator_norm(g)
    thr = 2.0 * spec.dim * g_norm
    if spec.power + linalg.EIG_RTOL * thr < thr:
        out.append(Violation(HIGH_SNR, float(spec.power), float(thr),
                             "power below the high-SNR threshold 2n||H^-1 C_z H^-H||"))
    for a in (h_inv, g):
        a.flags.writeable = False
    return ChannelFactors(tuple(out), sv, h_inv, g, g_norm)


def solve_capacity(spec: ChannelSpec) -> CapacityResult:
    """Water-filling capacity with improper Gaussian noise (high-SNR closed form).

    Raises AssumptionViolated (carrying the violation list) for inadmissible
    specs; otherwise returns the capacity in nats, the optimal input pair
    (trace C_x = S, P_x = -H^-1 P_z H^-T) and the water level L.
    """
    fac = spec.factors
    if fac.violations:
        raise AssumptionViolated(fac.violations)
    n = spec.dim
    t = float(np.trace(fac.g).real)
    s_plus_t = spec.power + t
    level = s_plus_t / n
    c_x = level * np.eye(n) - fac.g
    c_x = 0.5 * (c_x + c_x.conj().T)
    p_x = -fac.h_inv @ spec.noise.pcov @ fac.h_inv.T
    p_x = 0.5 * (p_x + p_x.T)
    lambdas = second_order.circularity_spectrum(spec.noise)
    _, logdet_h = np.linalg.slogdet(spec.h)
    d_z = spec.noise.factors.d
    capacity = (
        2.0 * logdet_h
        + n * np.log(s_plus_t)
        - float(np.sum(np.log(d_z)))
        - 0.5 * float(np.sum(np.log1p(-(lambdas**2))))
        - n * np.log(n)
    )
    input_pair = second_order.SecondOrderPair(cov=c_x, pcov=p_x)
    return CapacityResult(
        capacity_nats=float(capacity),
        input_pair=input_pair,
        water_level=float(level),
        spectrum=lambdas,
    )


def capacity_loss(spec: ChannelSpec) -> CapacityLossResult:
    """Rate lost by a transceiver designed for proper noise.

    mu_i are the singular values of (n / (S + tr)) * H^-1 P_z H^-T; the loss
    is -0.5 sum log(1 - mu_i^2), always in [0, n log(2/sqrt(3))).
    """
    fac = spec.factors
    if fac.violations:
        raise AssumptionViolated(fac.violations)
    n = spec.dim
    t = float(np.trace(fac.g).real)
    scaled = (n / (spec.power + t)) * (fac.h_inv @ spec.noise.pcov @ fac.h_inv.T)
    mus = np.linalg.svd(scaled, compute_uv=False)
    # + 0.0 turns the -0.0 of proper noise (every mu_i = 0) into 0.0
    delta = -0.5 * float(np.sum(np.log1p(-(mus**2)))) + 0.0
    return CapacityLossResult(delta_c_nats=delta, mus=mus)


def scalar_powers(c_z: float, p_z: float, power: float):
    """Real/imaginary power split for the scalar channel (H = 1).

    The noise splits into real and imaginary halves (C_z + P_z)/2 and
    (C_z - P_z)/2; filling both to the common level (S + C_z)/2 gives input
    powers (S - P_z)/2 and (S + P_z)/2. Returns
    (re_noise, im_noise, re_power, im_power) with re_power + im_power = S.
    """
    violations = []
    if not (c_z > 0):
        violations.append(Violation(NOISE_COV_SINGULAR, float(c_z), 0.0,
                                    "scalar noise variance must be positive"))
    elif abs(p_z) > c_z:
        violations.append(Violation(SPECTRUM_AT_ONE, abs(p_z) / c_z, 1.0,
                                    "|P_z| must not exceed C_z"))
    if c_z > 0 and power < 2.0 * c_z:
        violations.append(Violation(HIGH_SNR, float(power), 2.0 * c_z,
                                    "scalar high-SNR condition S >= 2 C_z"))
    if violations:
        raise AssumptionViolated(violations)
    re_noise = 0.5 * (c_z + p_z)
    im_noise = 0.5 * (c_z - p_z)
    re_power = 0.5 * (power - p_z)
    im_power = 0.5 * (power + p_z)
    return re_noise, im_noise, re_power, im_power


def _spawn_seeds(seed: int, count: int):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)]


def mc_mutual_information(
    spec: ChannelSpec,
    input_pair: second_order.SecondOrderPair,
    count: int,
    k: int = DEFAULT_K,
    seed: int = 0,
) -> EntropyValue:
    """Monte Carlo I(x; y) = h(y) - h(z) for Gaussian input and Gaussian noise.

    h(y) is estimated by kNN on simulated y = Hx + z; h(z) is closed-form.
    Deterministic given the seed: two child seeds are derived (input draws,
    then noise draws) via SeedSequence(seed).
    """
    v = input_pair.factors.validity
    if not v.valid:
        raise InvalidPair(v.reason)
    tr = float(np.trace(input_pair.cov).real)
    if tr > spec.power * (1.0 + linalg.POWER_RTOL):
        raise PowerExceeded(f"trace(C_x) = {tr:.12g} exceeds the budget {spec.power:.12g}")
    h_z = complex_gaussian_entropy(spec.noise).value
    seed_x, seed_z = _spawn_seeds(seed, 2)
    x = second_order.sample_gaussian(input_pair, count, seed_x)
    z = second_order.sample_gaussian(spec.noise, count, seed_z)
    y = x.data @ spec.h.T + z.data
    h_y = knn_entropy(second_order.SampleSet(data=y, seed=int(seed)), k)
    return EntropyValue(value=h_y.value - h_z, method=KNN_ESTIMATE, stderr=h_y.stderr)


def verify_circular_optimality(
    spec: ChannelSpec,
    noncircular_input: second_order.SampleSet,
    count: int | None = None,
    k: int = DEFAULT_K,
    seed: int = 0,
):
    """MI through a proper-noise channel, before and after circularizing the input.

    Returns (mi_original, mi_circularized) as EntropyValues. Circularizing
    cannot lower the mutual information when the noise is circular, so up to
    estimator noise mi_circularized >= mi_original - 3 stderr.

    Uses the first `count` vectors of the input (all if None; TooFewSamples
    if the set is smaller), and the same noise draws for both evaluations so
    their difference is estimated with reduced variance.
    """
    c_norm = linalg.operator_norm(spec.noise.cov)
    if linalg.operator_norm(spec.noise.pcov) > linalg.PROPER_RTOL * c_norm:
        raise NoiseNotCircular("noise complementary covariance must vanish")
    if count is None:
        count = noncircular_input.count
    if noncircular_input.count < count:
        raise TooFewSamples(f"input has {noncircular_input.count} < {count} samples")
    x = noncircular_input.data[:count]
    seed_z, seed_psi = _spawn_seeds(seed, 2)
    z = second_order.sample_gaussian(spec.noise, count, seed_z)
    h_z = complex_gaussian_entropy(spec.noise).value
    rotated = circularize(
        second_order.SampleSet(data=x, seed=noncircular_input.seed), seed_psi
    )
    y1 = x @ spec.h.T + z.data
    y2 = rotated.data @ spec.h.T + z.data
    h1 = knn_entropy(second_order.SampleSet(data=y1, seed=int(seed)), k)
    h2 = knn_entropy(second_order.SampleSet(data=y2, seed=int(seed)), k)
    mi1 = EntropyValue(value=h1.value - h_z, method=KNN_ESTIMATE, stderr=h1.stderr)
    mi2 = EntropyValue(value=h2.value - h_z, method=KNN_ESTIMATE, stderr=h2.stderr)
    return mi1, mi2
