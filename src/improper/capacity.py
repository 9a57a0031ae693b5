"""Capacity of the deterministic linear channel y = Hx + z with improper
Gaussian noise, in the high-SNR regime where the water level covers every
eigenchannel.

The capacity is I = h(y) - h(z) at the optimal Gaussian input, which fills
every eigenchannel to one water level L = (S + tr(H^-1 C_z H^-H)) / n:
C_x = L I - H^-1 C_z H^-H and P_x = -H^-1 P_z H^-T, so the input's
complementary covariance actively cancels the noise's. The output is then
proper with C_y = L H H^H, and

    capacity = n log(pi e L) + 2 sum log sigma_i(H) - h(z),

with h(z) the noise pair's closed-form entropy (complex_gaussian_entropy).

A ChannelSpec is immutable and solved once, on first use: ChannelSpec.factors
holds the assumption list and, for an admissible spec, the sealed
CapacityResult. check_assumptions and solve_capacity return what it holds,
and the other quantities are views of that one solution: capacity_loss, the
rate forfeited by a transceiver designed as if the noise were proper (always
below n log(2/sqrt(3))), reads mu = sigma(P_x) / L, and scalar_powers, the
real/imaginary power split of the scalar channel, reads the real covariances
of the noise and the input. None of them has a formula or an assumption
check of its own. The noise pair's cached factorization supplies its
validity, eigenvalues, circularity coefficients and entropy (cached on it,
so a pair whose entropy was asked for is not summed again).

The solve takes three LAPACK calls and reads H through the spec alone: the
singular values of H, H^-1, and the eigenvalues of the Hermitian
g = H^-1 C_z H^-H, whose largest is the ||g||_2 of the high-SNR threshold
(g is Hermitian, so an eigvalsh, cheaper than an SVD; over 1230 random
specs at n = 1 to 64 the two norms agree to 1.1e-15 relative, which only a
budget that close to the EIG_RTOL slack could tell apart). Nothing in the
solve leaves float range (linalg's range rule): the high-SNR test compares
S / 2n with ||g||, the level is S / n + tr(g) / n, and n log(pi e L) is
n log L + n log(pi e). A threshold beyond the float maximum, g's overflow
included, lies above every budget: HIGH_SNR is listed with threshold inf.

Out-of-assumption specs are rejected with a precise violation list rather
than approximated: no general low-SNR water-filling is implemented, because
the closed form above relies on the level exceeding every noise eigenvalue.

gaussian_mutual_information is I(x; y) = h(y) - h(z) of any Gaussian input
within the budget, in closed form: the output pair is
(H C_x H^H + C_z, H P_x H^T + P_z). At the solved input it equals the
capacity, so it is the oracle the solve is checked against. For inputs that
are not Gaussian, verify_circular_optimality estimates h(y) by kNN on
simulated channel outputs and checks that circularizing a non-circular input
cannot lower the MI through a proper-noise channel.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, second_order
from .entropy import (
    CLOSED_FORM,
    DEFAULT_K,
    KNN_ESTIMATE,
    EntropyValue,
    _LOG_PIE,
    complex_gaussian_entropy,
    knn_entropy,
)
from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    DomainError,
    NoiseNotCircular,
    PowerExceeded,
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

    Holds a sealed copy of H (linalg._sealed); the noise pair is immutable
    too, so the solve cached in ``factors`` cannot go stale.
    """

    h: np.ndarray
    noise: second_order.SecondOrderPair
    power: float

    def __post_init__(self):
        h = linalg.as_matrix(self.h, square=True)
        if h.shape[0] != self.noise.dim:
            raise DimensionMismatch("channel and noise dimensions differ")
        power = self.power  # a real number within float range: a bool or a string is not a budget
        if (isinstance(power, bool) or not isinstance(power, (int, float, np.integer, np.floating))
                or not 0 <= power <= sys.float_info.max):
            raise DomainError(f"power budget must be a non-negative real, got {power!r}")
        object.__setattr__(self, "h", linalg._sealed(h))
        object.__setattr__(self, "power", float(power))

    __reduce__ = linalg._rebuilt_from_fields

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
class CapacityResult:
    """The solution of one admissible spec; sealed, shared by every reader."""

    capacity_nats: float
    input_pair: second_order.SecondOrderPair
    water_level: float
    spectrum: np.ndarray  # noise circularity coefficients


@dataclass(frozen=True)
class ChannelFactors:
    """The spec's one solve: the assumption list of check_assumptions and,
    when it is empty, the CapacityResult that every capacity quantity reads
    (None otherwise)."""

    violations: tuple
    result: CapacityResult | None = None


@dataclass(frozen=True)
class CapacityLossResult:
    delta_c_nats: float
    mus: np.ndarray


def check_assumptions(spec: ChannelSpec) -> list[Violation]:
    """All solver assumptions, each reported with its measured quantity.

    Empty list = admissible: H non-singular, noise zero-mean with valid
    non-singular (C_z, P_z), every noise circularity coefficient strictly
    below 1, and the high-SNR condition S >= 2n * ||H^-1 C_z H^-H||_2
    (boundary included) with S > 0. Read from the spec's cached solve.
    """
    return list(spec.factors.violations)


def _factor_channel(spec: ChannelSpec) -> ChannelFactors:
    """Check the assumptions once and, if they all hold, solve the spec.

    Three LAPACK calls: the singular values of H, H^-1, and the eigenvalues
    of the noise referred to the input, g = H^-1 C_z H^-H, whose largest is
    ||g||_2 (g is Hermitian and positive definite wherever it is reached).
    The noise pair's cached factorization supplies everything else.
    """
    out = []
    n = spec.dim
    sv = np.linalg.svd(spec.h, compute_uv=False)
    h_ok = not linalg._not_positive(sv[-1], sv[0])
    if not h_ok:
        zero = float(linalg._eig_limits(sv[-1], sv[0])[0])
        out.append(Violation(H_SINGULAR, float(sv[-1]), zero,
                             "channel matrix numerically singular"))
    if np.count_nonzero(spec.noise.mean):
        out.append(Violation(NOISE_MEAN_NONZERO, float(np.max(np.abs(spec.noise.mean))), 0.0,
                             "noise must be zero-mean"))
    noise = spec.noise.factors
    v = noise.validity
    if v.reason not in (second_order.OK, second_order.SPECTRUM_EXCEEDS_ONE):
        singular = v.reason == second_order.C_SINGULAR
        out.append(Violation(NOISE_COV_SINGULAR if singular else NOISE_PAIR_INVALID,
                             noise.measured, noise.limit,
                             "noise covariance singular" if singular else v.reason))
        return ChannelFactors(tuple(out))
    # valid pair or SPECTRUM_EXCEEDS_ONE: max_lambda is measured either way
    if linalg._at_one(v.max_lambda):
        out.append(Violation(SPECTRUM_AT_ONE, float(v.max_lambda), linalg._AT_ONE,
                             "noise circularity coefficient at or beyond 1"))
    if not h_ok:
        return ChannelFactors(tuple(out))
    h_inv = np.linalg.inv(spec.h)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite g reads ||g|| = inf
        g = 0.5 * (h_inv @ spec.noise.cov @ h_inv.conj().T)  # half the noise referred to the input
        g = g + g.conj().T  # exactly Hermitian
    norm = float(np.linalg.eigvalsh(g)[-1]) if np.isfinite(g).all() else np.inf
    # C_z is non-singular here, so S = 0 is below every true threshold, also
    # where H^-1 C_z H^-H underflows to 0 and the norm reads 0
    if spec.power == 0.0 or spec.power / (2.0 * n) < norm * (1.0 - linalg.EIG_RTOL):
        out.append(Violation(HIGH_SNR, float(spec.power), 2.0 * n * norm,
                             "power below the high-SNR threshold 2n||H^-1 C_z H^-H||"))
    if out:
        return ChannelFactors(tuple(out))
    level = spec.power / n + float(g.trace().real) / n
    p_x = -h_inv @ spec.noise.pcov @ h_inv.T
    # L I - g is exactly Hermitian, as g is
    input_pair = second_order.SecondOrderPair(cov=level * np.eye(n) - g,
                                              pcov=0.5 * p_x + 0.5 * p_x.T)
    # C_y = L H H^H and P_y = 0, so h(y) = n log(pi e L) + 2 sum log sigma_i(H)
    h_y = n * (float(np.log(level)) + _LOG_PIE) + 2.0 * float(np.log(sv).sum())
    capacity = h_y - complex_gaussian_entropy(spec.noise).value
    return ChannelFactors((), CapacityResult(
        capacity_nats=float(capacity),
        input_pair=input_pair,
        water_level=float(level),
        spectrum=noise.lambdas,
    ))


def solve_capacity(spec: ChannelSpec) -> CapacityResult:
    """Water-filling capacity with improper Gaussian noise (high-SNR closed form).

    Raises AssumptionViolated (carrying the violation list) for inadmissible
    specs; otherwise returns the spec's cached solution: the capacity in
    nats, the optimal input pair (trace C_x = S, P_x = -H^-1 P_z H^-T) and
    the water level L. Every call on one spec returns the same object.
    """
    fac = spec.factors
    if fac.violations:
        raise AssumptionViolated(fac.violations)
    return fac.result


def capacity_loss(spec: ChannelSpec) -> CapacityLossResult:
    """Rate lost by a transceiver designed for proper noise.

    A view of solve_capacity: mu_i are the singular values of P_x / L, that
    is of (n / (S + tr)) * H^-1 P_z H^-T, and the loss is
    -0.5 sum log(1 - mu_i^2), always in [0, n log(2/sqrt(3))). Raises
    AssumptionViolated exactly where solve_capacity does.
    """
    res = solve_capacity(spec)
    mus = np.linalg.svd(res.input_pair.pcov, compute_uv=False) / res.water_level
    # + 0.0 turns the -0.0 of proper noise (every mu_i = 0) into 0.0
    delta = -0.5 * float(np.log1p(-(mus**2)).sum()) + 0.0
    return CapacityLossResult(delta_c_nats=delta, mus=mus)


def scalar_powers(c_z: float, p_z: float, power: float):
    """Real/imaginary power split for the scalar channel (H = 1).

    A view of solve_capacity on ChannelSpec(1, (C_z, P_z), S): the diagonals
    of the real covariances of the noise and of the optimal input, that is
    (re_noise, im_noise, re_power, im_power) = ((C_z + P_z)/2, (C_z - P_z)/2,
    (S - P_z)/2, (S + P_z)/2), with both halves filled to the level
    (S + C_z)/2. Raises AssumptionViolated exactly where check_assumptions
    flags the spec.
    """
    spec = ChannelSpec(np.eye(1), second_order.SecondOrderPair([[c_z]], [[p_z]]), power)
    x_pair = solve_capacity(spec).input_pair
    noise = np.diag(second_order.real_covariance(spec.noise))
    signal = np.diag(second_order.real_covariance(x_pair))
    return tuple(float(v) for v in (*noise, *signal))


def _mi_estimate(spec: ChannelSpec, x: np.ndarray, z: np.ndarray, k: int,
                 seed: int) -> EntropyValue:
    """I(x; y) = h(y) - h(z): kNN h(y) of y = x H^T + z, closed-form h(z)."""
    h_z = complex_gaussian_entropy(spec.noise).value
    h_y = knn_entropy(second_order.SampleSet(data=x @ spec.h.T + z, seed=seed), k)
    return EntropyValue(value=h_y.value - h_z, method=KNN_ESTIMATE, stderr=h_y.stderr)


def gaussian_mutual_information(
    spec: ChannelSpec,
    input_pair: second_order.SecondOrderPair,
) -> EntropyValue:
    """Closed-form I(x; y) = h(y) - h(z) for Gaussian input and Gaussian noise.

    y = Hx + z has the pair (H C_x H^H + C_z, H P_x H^T + P_z), and both
    entropies are complex_gaussian_entropy. Raises DimensionMismatch for an
    input of another dimension than the channel, InvalidPair for an invalid
    input pair and PowerExceeded when trace(C_x) exceeds the budget.
    """
    if input_pair.dim != spec.dim:
        raise DimensionMismatch("channel and input dimensions differ")
    input_pair.factors.require_valid()
    tr = float(np.trace(input_pair.cov).real)
    if tr > spec.power * (1.0 + linalg.POWER_RTOL):
        raise PowerExceeded(f"trace(C_x) = {tr:.12g} exceeds the budget {spec.power:.12g}")
    h = spec.h
    output = second_order.SecondOrderPair(cov=h @ input_pair.cov @ h.conj().T + spec.noise.cov,
                                          pcov=h @ input_pair.pcov @ h.T + spec.noise.pcov)
    value = (complex_gaussian_entropy(output).value
             - complex_gaussian_entropy(spec.noise).value)
    return EntropyValue(value=value, method=CLOSED_FORM)


def verify_circular_optimality(
    spec: ChannelSpec,
    noncircular_input: second_order.SampleSet,
    k: int = DEFAULT_K,
    seed: int = 0,
):
    """MI through a proper-noise channel, before and after circularizing the input.

    Returns (mi_original, mi_circularized) as EntropyValues. Circularizing
    cannot lower the mutual information when the noise is circular, so up to
    estimator noise mi_circularized >= mi_original - 3 stderr.

    Both evaluations use the same noise draws, one per input vector, so
    their difference is estimated with reduced variance. Raises
    DimensionMismatch for samples of another dimension than the channel.
    """
    from .analog import circularize  # here, so solving a channel never loads analog

    if noncircular_input.n != spec.dim:
        raise DimensionMismatch("channel and input dimensions differ")
    c_norm = linalg.operator_norm(spec.noise.cov)
    if linalg.operator_norm(spec.noise.pcov) > linalg.PROPER_RTOL * c_norm:
        raise NoiseNotCircular("noise complementary covariance must vanish")
    seed_z, seed_psi = second_order._spawn_seeds(seed, 2)
    z = second_order.sample_gaussian(spec.noise, noncircular_input.count, seed_z)
    rotated = circularize(noncircular_input, seed_psi)
    return (_mi_estimate(spec, noncircular_input.data, z.data, k, seed),
            _mi_estimate(spec, rotated.data, z.data, k, seed))
