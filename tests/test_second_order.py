import numpy as np
import pytest

import improper as ip
from conftest import SCALES
from improper import capacity, entropy, linalg, second_order as so, verify
from improper.errors import (
    DimensionMismatch,
    DomainError,
    InvalidPair,
    NotPositiveSemidefinite,
    NotSymmetric,
    SingularCovariance,
    TooFewSamples,
)


def scalar_pair(lam, c=1.0):
    return so.SecondOrderPair(cov=np.array([[c]], dtype=complex),
                              pcov=np.array([[lam * c]], dtype=complex))


def test_pair_shape_checks():
    with pytest.raises(DimensionMismatch):
        so.SecondOrderPair(cov=np.eye(2), pcov=np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        so.SecondOrderPair(cov=np.eye(2), pcov=np.zeros((2, 2)), mean=np.zeros(3))


def _with_entry(value):
    a = np.eye(2)
    a[0, 0] = value
    return a


# entry point -> (call on one matrix, whether it needs a square matrix)
GATED = {
    "SecondOrderPair": (lambda a: so.SecondOrderPair(cov=a, pcov=a), True),
    "validate_pair": (lambda a: so.validate_pair(a, a), True),
    "SampleSet": (lambda a: so.SampleSet(data=a), False),
    "pair_from_real_covariance": (so.pair_from_real_covariance, True),
    "real_gaussian_entropy": (entropy.real_gaussian_entropy, True),
    "neeser_massey_bound": (entropy.neeser_massey_bound, True),
    "hermitian_eig": (linalg.hermitian_eig, True),
    "takagi": (linalg.takagi, True),
    "ChannelSpec": (lambda a: ip.ChannelSpec(h=a, noise=so.SecondOrderPair.proper(np.eye(2)),
                                             power=10.0), True),
    "overline_map": (linalg.overline_map, False),
    "underline_map": (linalg.underline_map, False),
}
FAULTS = {
    "1-D": (np.ones(2), DimensionMismatch),
    "3-D": (np.ones((2, 2, 2)), DimensionMismatch),
    "non-square": (np.ones((2, 4)), DimensionMismatch),
    "0x0": (np.zeros((0, 0)), DimensionMismatch),
    "nan": (_with_entry(np.nan), DomainError),
    "inf": (_with_entry(np.inf), DomainError),
    # entries that are not numbers, as in files: a bool is not a number either
    "str": ("not a matrix", DomainError),
    "quoted number": ([["1.5", "0"], ["0", "1.5"]], DomainError),
    "object": (np.eye(2).astype(object), DomainError),
    "dict": ({"re": [[1.0]]}, DomainError),
    "bool": (np.eye(2, dtype=bool), DomainError),
    "ragged": ([[1.0, 2.0], [3.0]], DimensionMismatch),
}
_SAMPLES = so.SampleSet(data=np.ones((500, 1)))
# entry point -> call with one seed
SEEDED = {
    "SampleSet": lambda seed: so.SampleSet(data=np.ones((3, 1)), seed=seed),
    "sample_gaussian": lambda seed: so.sample_gaussian(scalar_pair(0.5), 10, seed),
    "circularize": lambda seed: ip.circularize(_SAMPLES, seed),
    "analog_entropy_gap": lambda seed: ip.analog_entropy_gap(_SAMPLES, seed=seed),
}
OTHER_FAULTS = {
    "C/P shapes differ": (lambda: so.SecondOrderPair(cov=np.eye(2), pcov=np.eye(3)),
                          DimensionMismatch),
    "odd 2n": (lambda: so.pair_from_real_covariance(np.eye(3)), DimensionMismatch),
    # C = S11 + S22 = 2e308 I has no float
    "C beyond float range": (lambda: so.pair_from_real_covariance(1e308 * np.eye(4)),
                             DomainError),
    # a real covariance is real: complex entries are not cast away
    **{f"{name} complex": (lambda call=call: call(np.eye(2, dtype=complex)), DomainError)
       for name, call in (("real_gaussian_entropy", entropy.real_gaussian_entropy),
                          ("pair_from_real_covariance", so.pair_from_real_covariance))},
    "odd real vector": (lambda: linalg.complex_vector(np.ones(3)), DimensionMismatch),
    "PolarPoint r/phi": (lambda: ip.PolarPoint(r=np.ones(2), phi=np.ones(3)), DimensionMismatch),
    "SampleSet 0 rows": (lambda: so.SampleSet(data=np.zeros((0, 2))), DimensionMismatch),
    "SampleSet 0 columns": (lambda: so.SampleSet(data=np.zeros((500, 0))), DimensionMismatch),
    "non-finite mean": (lambda: so.SecondOrderPair(cov=np.eye(1), pcov=np.zeros((1, 1)),
                                                   mean=[np.nan]), DomainError),
    "count 0": (lambda: so.sample_gaussian(scalar_pair(0.5), 0, seed=1), DomainError),
    "count 2.5": (lambda: so.sample_gaussian(scalar_pair(0.5), 2.5, seed=1), DomainError),
    # a bool is not an integer count, k or seed, though Python counts it as an int
    **{f"count {flag}": (lambda flag=flag: so.sample_gaussian(scalar_pair(0.5), flag, seed=1),
                         DomainError) for flag in (True, False)},
    **{f"k {flag}": (lambda flag=flag: entropy.knn_entropy(_SAMPLES, k=flag), DomainError)
       for flag in (True, False)},
    **{f"power {s}": (lambda s=s: ip.ChannelSpec(h=np.eye(1), noise=scalar_pair(0.5), power=s),
                      DomainError) for s in (np.nan, np.inf, -1.0, True, "3")},
    "power 10**400": (lambda: ip.ChannelSpec(h=np.eye(1), noise=scalar_pair(0.5), power=10**400),
                      DomainError),
    **{f"{name} seed {seed}": (lambda call=call, seed=seed: call(seed), DomainError)
       for name, call in SEEDED.items() for seed in (1.5, -1, True, False)},
}
TABLE = [pytest.param(lambda call=call, a=a: call(a), error, id=f"{name}-{fault}")
         for name, (call, square) in GATED.items()
         for fault, (a, error) in FAULTS.items() if square or fault != "non-square"]
# the entry points that take numbers of any shape share the gate's dtype and ragged rules
_MODEL = ip.analog_gaussian_model(so.SecondOrderPair.proper(np.eye(2)))
NUMBERS = {"analog_gaussian_density": lambda a: ip.analog_gaussian_density(_MODEL, a),
           "analog_gaussian_log_density": lambda a: ip.analog_gaussian_log_density(_MODEL, a),
           "bessel_i0": ip.bessel_i0,
           "log_bessel_i0": ip.log_bessel_i0,
           "real_to_polar": ip.real_to_polar,
           "PolarPoint": lambda a: ip.PolarPoint(r=a, phi=a)}
TABLE += [pytest.param(lambda call=call, a=FAULTS[fault][0]: call(a), FAULTS[fault][1],
                       id=f"{name}-{fault}")
          for name, call in NUMBERS.items()
          for fault in ("str", "quoted number", "object", "bool", "ragged")]
TABLE += [pytest.param(call, error, id=name) for name, (call, error) in OTHER_FAULTS.items()]


@pytest.mark.parametrize("call, error", TABLE)
def test_malformed_input_raises_the_named_error(call, error):
    # the exact type, so a NaN cannot pass for NotSymmetric or NotPositiveDefinite
    with pytest.raises(DomainError) as err:
        call()
    assert type(err.value) is error, repr(err.value)


def test_validate_pair_rejects_empty_matrices():
    with pytest.raises(DimensionMismatch):
        so.validate_pair(np.zeros((0, 0)), np.zeros((0, 0)))


def test_circularity_spectrum_rejects_empty_pair():
    # the pair type refuses n = 0, so no spectrum of an empty pair can be asked for
    with pytest.raises(DimensionMismatch):
        so.circularity_spectrum(so.SecondOrderPair(cov=np.zeros((0, 0)), pcov=np.zeros((0, 0))))


def test_proper_constructor():
    pair = so.SecondOrderPair.proper(2 * np.eye(3))
    np.testing.assert_array_equal(pair.pcov, np.zeros((3, 3)))
    assert pair.dim == 3


def test_real_covariance_scalar():
    s = so.real_covariance(scalar_pair(0.8))
    np.testing.assert_allclose(s, [[0.9, 0.0], [0.0, 0.1]], atol=1e-15)


def test_real_covariance_blocks():
    # S = [[ (Re C + Re P)/2, (-Im C + Im P)/2 ], [ (Im C + Im P)/2, (Re C - Re P)/2 ]]
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = g @ g.conj().T
    p_raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = 0.1 * (p_raw + p_raw.T)
    pair = so.SecondOrderPair(cov=c, pcov=p)
    s = so.real_covariance(pair)
    expected = 0.5 * np.block([
        [c.real + p.real, -c.imag + p.imag],
        [c.imag + p.imag, c.real - p.real],
    ])
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_real_covariance_round_trip():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = g @ g.conj().T + 0.1 * np.eye(4)
    p_raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = 0.05 * (p_raw + p_raw.T)
    pair = so.SecondOrderPair(cov=c, pcov=p)
    back = so.pair_from_real_covariance(so.real_covariance(pair))
    np.testing.assert_allclose(back.cov, c, atol=1e-12)
    np.testing.assert_allclose(back.pcov, p, atol=1e-12)


def test_pair_from_real_covariance_rejects_bad_input():
    with pytest.raises(NotSymmetric):
        so.pair_from_real_covariance(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveSemidefinite):
        so.pair_from_real_covariance(np.diag([1.0, -0.5]))
    with pytest.raises(DimensionMismatch):
        so.pair_from_real_covariance(np.eye(3))


def test_pair_from_real_covariance_rejects_empty():
    with pytest.raises(DimensionMismatch):
        so.pair_from_real_covariance(np.zeros((0, 0)))


def _scaled_cases():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = g @ g.conj().T + 0.2 * np.eye(3)
    d, u = np.linalg.eigh(c)
    b = u * np.sqrt(d)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    p = b @ q @ np.diag([0.9, 0.4, 0.1]) @ q.T @ b.T
    p = 0.5 * (p + p.T)
    p_big = b @ q @ np.diag([1.3, 0.4, 0.1]) @ q.T @ b.T
    return [
        (c, p, so.OK),
        (c, 0.5 * (p_big + p_big.T), so.SPECTRUM_EXCEEDS_ONE),
        (c + 0.5j * np.triu(np.ones((3, 3)), 1), p, so.C_NOT_HERMITIAN),
        (np.diag([1.0, 0.5, -0.5]), np.zeros((3, 3)), so.C_NOT_PSD),
        (np.diag([1.0, 0.5, 0.0]), np.zeros((3, 3)), so.C_SINGULAR),
        (c, p + 0.1 * np.triu(np.ones((3, 3)), 1), so.P_NOT_SYMMETRIC),
        (c, 1e-15 * np.triu(np.ones((3, 3))), so.OK),  # round-off next to C
    ]


@pytest.mark.parametrize("scale", SCALES)
def test_verdicts_and_spectrum_are_scale_free(scale):
    for c, p, reason in _scaled_cases():
        at_one = so.validate_pair(c, p)
        scaled = so.validate_pair(scale * c, scale * p)
        assert at_one.reason == reason
        assert scaled.reason == reason
        if reason in (so.OK, so.SPECTRUM_EXCEEDS_ONE):
            assert scaled.max_lambda == pytest.approx(at_one.max_lambda, rel=1e-12)
            np.testing.assert_allclose(
                so.circularity_spectrum(so.SecondOrderPair(cov=scale * c, pcov=scale * p)),
                so.circularity_spectrum(so.SecondOrderPair(cov=c, pcov=p)), rtol=1e-12)


def _bits(factors: so.PairFactors) -> tuple:
    """Everything a PairFactors records, as bytes (a nan equals itself)."""
    floats = (factors.validity.max_lambda, factors.measured, factors.limit)
    arrays = (factors.d, factors.b_inv, factors.m, factors.lambdas)
    return (factors.validity.valid, factors.validity.reason,
            np.array(floats).tobytes(),
            tuple(None if a is None else (a.shape, a.tobytes()) for a in arrays))


@pytest.mark.parametrize("scale", [1.0] + SCALES)
def test_stacked_factors_match_the_scalar_path_bit_for_bit(scale):
    cases = _scaled_cases()
    c = scale * np.array([case[0] for case in cases], dtype=complex)
    p = scale * np.array([case[1] for case in cases], dtype=complex)
    lookups = [memo.cache_info()[:2] for memo in linalg._MEMOS]
    stacked = so._factor_pairs(c, p)
    held = so._factored_pairs(c[::-1], p[::-1])[::-1]  # another order, the same bits
    assert [memo.cache_info()[:2] for memo in linalg._MEMOS] == lookups  # no memo read
    assert [f.validity.reason for f in stacked] == [case[2] for case in cases]
    for i, factors in enumerate(stacked):
        scalar = so._factor_pair(c[i], p[i])
        assert _bits(factors) == _bits(scalar) == _bits(held[i].factors), cases[i][2]
        for a in (factors.d, factors.b_inv, factors.m, factors.lambdas):
            if a is not None:
                with pytest.raises(ValueError):
                    a.flags.writeable = True


@pytest.mark.parametrize("scale", SCALES)
def test_symmetry_tests_are_scale_free(scale):
    # neither tiny nor huge entries (whose Frobenius norm overflows) hide the asymmetry
    a = scale * np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        linalg.takagi(a)
    with pytest.raises(NotSymmetric):
        so.pair_from_real_covariance(a)
    with pytest.raises(NotSymmetric):
        entropy.real_gaussian_entropy(a)
    sym = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(linalg.takagi(sym).sigma, [3.0 * scale, scale], rtol=1e-12)
    assert so.pair_from_real_covariance(sym).dim == 1


def test_verdicts_hold_at_the_ends_of_float_range():
    # a subnormal largest entry would overflow a division by it, and C + C^H overflows
    # above about 9e307; neither reads a wrong verdict or raises a RuntimeWarning
    for scale in (1e-310, 1e-320, 1e-305, 1e308, 1.7e308):
        v = so.validate_pair(scale * np.eye(2), np.zeros((2, 2)))
        assert (v.valid, v.reason, v.max_lambda) == (True, so.OK, 0.0), scale
        assert so.validate_pair(scale * np.eye(2), 0.5 * scale * np.eye(2)).valid, scale
    for scale in (1e-310, 1.7e308):
        skew = scale * np.array([[1.0, 1.0], [0.0, 1.0]])
        assert so.validate_pair(skew, np.zeros((2, 2))).reason == so.C_NOT_HERMITIAN
        assert so.validate_pair(np.eye(2) * scale, skew).reason == so.P_NOT_SYMMETRIC


def test_asymmetries_are_the_same_bits_at_every_power_of_two():
    c = np.array([[2.0, 1.0 + 0.5j], [1.0 - 0.4j, 1.5]])
    p = np.array([[0.3, 0.2j], [0.1, -0.4]])
    values = {(linalg._asymmetry(s * c, True), linalg._asymmetry(s * p, False, beside=s * c))
              for s in (1.0, 2.0 ** -1000, 2.0 ** -600, 2.0 ** 600, 2.0 ** 1020)}
    assert len(values) == 1, values
    measured = {so.SecondOrderPair(cov=s * c, pcov=np.zeros((2, 2))).factors.measured
                for s in (1.0, 2.0 ** -1000, 2.0 ** 1020)}
    assert measured == {linalg._asymmetry(c, True)} and measured != {0.0}
    with pytest.raises(ip.NotHermitian) as err:
        linalg.hermitian_eig(c)
    assert err.value.asymmetry == linalg._asymmetry(c, True)

def test_circularity_spectrum_diagonal():
    pair = so.SecondOrderPair(cov=np.eye(2), pcov=np.diag([0.5, 0.2]).astype(complex))
    np.testing.assert_allclose(so.circularity_spectrum(pair), [0.5, 0.2], atol=1e-12)


def test_circularity_spectrum_congruence_invariant():
    rng = np.random.default_rng(21)
    pair = scalar_pair(0.6)
    lams = so.circularity_spectrum(pair)
    a = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)) + 2.0
    moved = so.SecondOrderPair(cov=a @ pair.cov @ a.conj().T, pcov=a @ pair.pcov @ a.T)
    np.testing.assert_allclose(so.circularity_spectrum(moved), lams, atol=1e-10)


def test_circularity_spectrum_singular_cov():
    pair = so.SecondOrderPair(cov=np.zeros((1, 1)), pcov=np.zeros((1, 1)))
    with pytest.raises(SingularCovariance):
        so.circularity_spectrum(pair)
    # a negative eigenvalue is the fault validate_pair names, with its measured value
    negative = so.SecondOrderPair(cov=-np.eye(2), pcov=np.zeros((2, 2)))
    assert negative.factors.validity.reason == so.C_NOT_PSD
    with pytest.raises(NotPositiveSemidefinite, match="-1.000e[+]00 below -1.000e-10"):
        so.circularity_spectrum(negative)


def test_validate_pair_accepts_half_lambda():
    v = so.validate_pair(np.eye(1), np.array([[0.5]]))
    assert v.valid
    assert v.reason == so.OK
    assert v.max_lambda == pytest.approx(0.5, abs=1e-12)


def test_validate_pair_rejects_large_spectrum():
    v = so.validate_pair(np.eye(1), np.array([[1.5]]))
    assert not v.valid
    assert v.reason == so.SPECTRUM_EXCEEDS_ONE
    assert v.max_lambda == pytest.approx(1.5, abs=1e-12)


def test_validate_pair_failure_reasons():
    assert so.validate_pair(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.zeros((2, 2))).reason == so.C_NOT_HERMITIAN
    assert so.validate_pair(np.array([[-1.0]]), np.zeros((1, 1))).reason == so.C_NOT_PSD
    assert so.validate_pair(np.diag([1.0, 0.0]), np.zeros((2, 2))).reason == so.C_SINGULAR
    assert so.validate_pair(np.eye(2),
                            np.array([[0.0, 0.3], [-0.3, 0.0]])).reason == so.P_NOT_SYMMETRIC


def test_p_symmetry_is_judged_against_the_pair_scale():
    # an asymmetry far below ||C|| is round-off, however large it is next to ||P||
    assert so.validate_pair(np.eye(2), 1e-15 * np.array([[0.0, 1.0], [0.0, 0.0]])).valid
    # the channel output at the solved input: P_y = H P_x H^T + P_z cancels to round-off
    rng = np.random.default_rng(77)
    for _ in range(100):
        spec = verify._random_specs(rng, int(rng.integers(1, 7)), 1)[0]
        x = capacity.solve_capacity(spec).input_pair
        h = spec.h
        v = so.validate_pair(h @ x.cov @ h.conj().T + spec.noise.cov,
                             h @ x.pcov @ h.T + spec.noise.pcov)
        assert v.valid, v
    # a generic non-symmetric P at the scale of C is still rejected, its ratio recorded
    g = np.random.default_rng(3).standard_normal((3, 3))
    c, p = 2.0 * np.eye(3), g + 1j * g.T
    factors = so.SecondOrderPair(cov=c, pcov=p).factors
    assert factors.validity.reason == so.P_NOT_SYMMETRIC
    assert factors.measured == linalg._asymmetry(p, hermitian=False, beside=c) > 0.1
    assert factors.limit == linalg.SYM_RTOL


def test_validate_pair_boundary_lambda():
    assert so.validate_pair(np.eye(1), np.array([[1.0]])).valid
    assert so.validate_pair(np.eye(1), np.array([[1.0 - 1e-6]])).valid
    assert not so.validate_pair(np.eye(1), np.array([[1.0 + 1e-6]])).valid


def test_underline_map_eigenvalues_scalar():
    eigs = np.linalg.eigvalsh(linalg.underline_map(scalar_pair(0.5).pcov))[::-1]
    np.testing.assert_allclose(eigs, [0.5, -0.5], atol=1e-12)


def test_underline_map_eigenvalues_random():
    # the eigenvalues of underline(P) are the singular values of P and their negatives
    rng = np.random.default_rng(31)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(linalg.underline_map(p))[::-1]
    sigma = np.linalg.svd(p, compute_uv=False)
    expected = np.sort(np.concatenate([sigma, -sigma]))[::-1]
    np.testing.assert_allclose(eigs, expected, atol=1e-10)


def test_sample_gaussian_moments():
    rng_pair = so.SecondOrderPair(cov=np.eye(2), pcov=np.zeros((2, 2)))
    x = so.sample_gaussian(rng_pair, 100_000, seed=17)
    emp = so.empirical_pair(x)
    assert np.max(np.abs(emp.cov - np.eye(2))) <= 0.05
    assert np.max(np.abs(emp.pcov)) <= 0.05


def test_sample_gaussian_improper_moments():
    pair = scalar_pair(0.8)
    x = so.sample_gaussian(pair, 100_000, seed=19)
    emp = so.empirical_pair(x)
    assert abs(emp.cov[0, 0] - 1.0) <= 0.05
    assert abs(emp.pcov[0, 0] - 0.8) <= 0.05


def test_sample_gaussian_lambda_one_is_real():
    # C = P = [[1]] forces zero imaginary-part variance
    x = so.sample_gaussian(so.SecondOrderPair(cov=np.eye(1), pcov=np.eye(1)), 1000, seed=3)
    assert np.max(np.abs(x.data.imag)) <= 1e-7


def test_sample_gaussian_mean_and_determinism():
    mean = np.array([1.0 + 2.0j])
    pair = so.SecondOrderPair(cov=np.eye(1), pcov=np.zeros((1, 1)), mean=mean)
    a = so.sample_gaussian(pair, 5000, seed=23)
    b = so.sample_gaussian(pair, 5000, seed=23)
    np.testing.assert_array_equal(a.data, b.data)
    assert abs(a.data.mean() - mean[0]) <= 0.1


def test_sample_gaussian_rejects_invalid_pair():
    with pytest.raises(InvalidPair) as err:
        so.sample_gaussian(so.SecondOrderPair(cov=np.eye(1), pcov=np.array([[1.5]])), 10, 0)
    assert err.value.reason == so.SPECTRUM_EXCEEDS_ONE


def test_empirical_pair_too_few():
    with pytest.raises(TooFewSamples):
        so.empirical_pair(so.SampleSet(data=np.zeros((1, 2), dtype=complex), seed=0))


def test_empirical_pair_conjugation():
    x = so.sample_gaussian(scalar_pair(0.5), 2000, seed=5)
    emp = so.empirical_pair(x)
    emp_conj = so.empirical_pair(so.SampleSet(data=x.data.conj(), seed=0))
    np.testing.assert_allclose(emp_conj.cov, emp.cov.conj(), atol=1e-12)
    np.testing.assert_allclose(emp_conj.pcov, emp.pcov.conj(), atol=1e-12)


def test_empirical_pair_of_valid_samples_is_valid():
    pair = scalar_pair(0.9)
    x = so.sample_gaussian(pair, 50_000, seed=29)
    emp = so.empirical_pair(x)
    v = so.validate_pair(emp.cov, emp.pcov)
    assert v.valid
    assert v.max_lambda <= 1.0 + 1e-10
