"""Improper complex random vectors: second-order structure, circular
analogs, entropy bounds and channel capacity with improper Gaussian noise.
"""

from .analog import (
    AnalogGaussianModel,
    analog_entropy_gap,
    analog_gaussian_density,
    analog_gaussian_log_density,
    analog_gaussian_model,
    bessel_i0,
    circularize,
    divergence_to_analog,
    log_bessel_i0,
)
from .capacity import (
    CapacityLossResult,
    CapacityResult,
    ChannelSpec,
    Violation,
    capacity_loss,
    check_assumptions,
    mc_mutual_information,
    scalar_powers,
    solve_capacity,
    verify_circular_optimality,
)
from .entropy import (
    EntropyValue,
    complex_gaussian_entropy,
    knn_entropy,
    knn_kl_divergence,
    neeser_massey_bound,
    real_gaussian_entropy,
)
from .errors import (
    AssumptionViolated,
    DegenerateConditional,
    DimensionMismatch,
    DomainError,
    InvalidPair,
    NoiseNotCircular,
    NotHermitian,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    NotSymmetric,
    PowerExceeded,
    SingularCovariance,
    SpectrumAtOne,
    TiedSamples,
    TooFewSamples,
)
from .linalg import (
    TakagiFactorization,
    generalized_cholesky,
    hermitian_eig,
    operator_norm,
    overline_map,
    svd,
    takagi,
    underline_map,
)
from .second_order import (
    PairValidity,
    SampleSet,
    SecondOrderPair,
    circularity_spectrum,
    empirical_pair,
    pair_from_real_covariance,
    real_covariance,
    sample_gaussian,
    validate_pair,
)
from .transforms import (
    PolarPoint,
    polar_density,
    polar_to_real,
    polar_to_sheared,
    real_to_polar,
    sheared_density,
    sheared_to_polar,
)

__version__ = "0.1.0"
