"""Improper complex random vectors: second-order structure, circular
analogs, entropy bounds and channel capacity with improper Gaussian noise.

`import improper` loads no submodule (not even numpy). Every public name
in _EXPORTS, and the submodules analog, capacity, entropy, errors, linalg,
second_order and transforms, load on first use (`improper.X` or `from
improper import X`, PEP 562) and are then kept in the package namespace,
so a command or a script pays only for the modules it touches. `__all__`
lists the public names, and `dir(improper)` lists them and the submodules,
loaded or not.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analog": (
        "AnalogGaussianModel",
        "analog_entropy_gap",
        "analog_gaussian_density",
        "analog_gaussian_log_density",
        "analog_gaussian_model",
        "bessel_i0",
        "circularize",
        "divergence_to_analog",
        "log_bessel_i0",
    ),
    "capacity": (
        "CapacityLossResult",
        "CapacityResult",
        "ChannelSpec",
        "Violation",
        "capacity_loss",
        "check_assumptions",
        "gaussian_mutual_information",
        "solve_capacity",
    ),
    "entropy": (
        "EntropyValue",
        "complex_gaussian_entropy",
        "knn_entropy",
        "knn_kl_divergence",
        "neeser_massey_bound",
        "real_gaussian_entropy",
    ),
    "errors": (
        "AssumptionViolated",
        "DegenerateConditional",
        "DimensionMismatch",
        "DomainError",
        "InvalidPair",
        "NotHermitian",
        "NotPositiveDefinite",
        "NotPositiveSemidefinite",
        "NotSymmetric",
        "PowerExceeded",
        "SingularCovariance",
        "SpectrumAtOne",
        "TiedSamples",
        "TooFewSamples",
    ),
    "linalg": (
        "TakagiFactorization",
        "hermitian_eig",
        "overline_map",
        "takagi",
        "underline_map",
    ),
    "second_order": (
        "PairValidity",
        "SampleSet",
        "SecondOrderPair",
        "circularity_spectrum",
        "empirical_pair",
        "pair_from_real_covariance",
        "real_covariance",
        "sample_gaussian",
        "validate_pair",
    ),
    "transforms": (
        "PolarPoint",
        "polar_density",
        "polar_to_real",
        "polar_to_sheared",
        "real_to_polar",
        "sheared_to_polar",
    ),
}

# name -> the submodule that defines it; a submodule name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
