import numpy as np
import pytest

from conftest import SCALES
from improper import analog, capacity as cap, entropy, second_order as so, verify
from improper.errors import (
    AssumptionViolated,
    DimensionMismatch,
    InvalidPair,
    PowerExceeded,
    SpectrumAtOne,
)


def scalar_spec(p_z=0.0, power=2.0, c_z=1.0):
    noise = so.SecondOrderPair(cov=np.array([[c_z]], dtype=complex),
                               pcov=np.array([[p_z]], dtype=complex))
    return cap.ChannelSpec(h=np.eye(1), noise=noise, power=power)


def test_channel_spec_validation():
    noise = so.SecondOrderPair.proper(np.eye(2))
    with pytest.raises(DimensionMismatch):
        cap.ChannelSpec(h=np.eye(3), noise=noise, power=1.0)
    with pytest.raises(DimensionMismatch):
        cap.ChannelSpec(h=np.ones((2, 3)), noise=noise, power=1.0)
    with pytest.raises(ValueError):
        cap.ChannelSpec(h=np.eye(2), noise=noise, power=-1.0)


def test_check_assumptions_all_clear():
    assert cap.check_assumptions(scalar_spec()) == []


def test_check_assumptions_flags():
    bad_h = cap.ChannelSpec(h=np.zeros((1, 1)),
                            noise=so.SecondOrderPair.proper(np.eye(1)), power=9.0)
    names = [v.name for v in cap.check_assumptions(bad_h)]
    assert cap.H_SINGULAR in names

    mean_noise = so.SecondOrderPair(cov=np.eye(1), pcov=np.zeros((1, 1)),
                                    mean=np.array([1.0 + 0j]))
    names = [v.name for v in cap.check_assumptions(
        cap.ChannelSpec(h=np.eye(1), noise=mean_noise, power=9.0))]
    assert cap.NOISE_MEAN_NONZERO in names

    names = [v.name for v in cap.check_assumptions(scalar_spec(p_z=1.0, power=9.0))]
    assert cap.SPECTRUM_AT_ONE in names

    names = [v.name for v in cap.check_assumptions(scalar_spec(power=0.5))]
    assert names == [cap.HIGH_SNR]

    sing = cap.ChannelSpec(h=np.eye(2), noise=so.SecondOrderPair(
        cov=np.diag([1.0, 0.0]).astype(complex), pcov=np.zeros((2, 2))), power=9.0)
    names = [v.name for v in cap.check_assumptions(sing)]
    assert names == [cap.NOISE_COV_SINGULAR]


def _scaled_spec(scale, h_diag, power_factor):
    # H = scale diag(h_diag) and C_z = scale C0 keep H^-1 C_z H^-H finite at every scale
    c0 = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    noise = so.SecondOrderPair(cov=scale * c0, pcov=scale * np.array([[0.3, 0.1], [0.1, 0.2]]))
    h = scale * np.diag(h_diag).astype(complex)
    g = np.linalg.inv(np.diag(h_diag)) @ c0 @ np.linalg.inv(np.diag(h_diag)).conj().T
    power = power_factor * 4.0 * np.linalg.norm(g, 2) / scale
    return cap.ChannelSpec(h=h, noise=noise, power=power)


@pytest.mark.parametrize("scale", SCALES)
def test_scaled_identity_channel_is_never_singular(scale):
    for n in (1, 3):
        spec = cap.ChannelSpec(h=scale * np.eye(n), noise=so.SecondOrderPair.proper(
            scale * np.eye(n)), power=2.0 * n / scale)
        assert cap.check_assumptions(spec) == []
    assert cap.check_assumptions(_scaled_spec(scale, [1.0, 0.5], 1.5)) == []


@pytest.mark.parametrize("scale", SCALES)
def test_flagged_violations_measure_past_their_threshold(scale):
    singular = cap.check_assumptions(_scaled_spec(scale, [1.0, 1e-13], 1.5))
    low_power = cap.check_assumptions(_scaled_spec(scale, [1.0, 0.5], 0.9))
    assert [v.name for v in singular] == [cap.H_SINGULAR]
    assert [v.name for v in low_power] == [cap.HIGH_SNR]
    for v in singular + low_power:
        assert v.measured <= v.threshold
    at_one = cap.check_assumptions(scalar_spec(p_z=1.0, power=9.0))
    assert [v.measured >= v.threshold for v in at_one] == [True]
    # invalid noise: C_z singular or indefinite (eigenvalue at or below its
    # limit), C_z not Hermitian or P_z not symmetric (asymmetry above SYM_RTOL)
    zero = np.zeros((2, 2))
    for c_z, p_z, name, below in [
            (np.diag([1.0, 1e-13]), zero, cap.NOISE_COV_SINGULAR, True),
            (np.diag([1.0, -1.0]), zero, cap.NOISE_PAIR_INVALID, True),
            (np.array([[1.0, 1.0], [0.0, 1.0]]), zero, cap.NOISE_PAIR_INVALID, False),
            (np.eye(2), np.array([[0.3, 0.1], [0.2, 0.2]]), cap.NOISE_PAIR_INVALID, False)]:
        noise = so.SecondOrderPair(cov=scale * c_z, pcov=scale * p_z)
        (v,) = cap.check_assumptions(cap.ChannelSpec(h=np.eye(2), noise=noise, power=9.0))
        assert v.name == name
        assert np.isfinite(v.measured) and np.isfinite(v.threshold)
        assert (v.measured <= v.threshold) if below else (v.measured > v.threshold)


@pytest.mark.parametrize("lam, at_one", [(1.0 - 0.5e-10, True), (1.0 - 2e-10, False)])
def test_spectrum_at_one_boundary_is_shared(lam, at_one):
    spec = scalar_spec(p_z=lam, power=9.0)
    names = [v.name for v in cap.check_assumptions(spec)]
    if at_one:
        assert names == [cap.SPECTRUM_AT_ONE]
        with pytest.raises(SpectrumAtOne):
            entropy.complex_gaussian_entropy(spec.noise)
        with pytest.raises(SpectrumAtOne):
            analog.analog_gaussian_model(spec.noise)
    else:
        assert names == []
        assert np.isfinite(entropy.complex_gaussian_entropy(spec.noise).value)
        assert analog.analog_gaussian_model(spec.noise).lambdas[0] < 1.0


def test_high_snr_boundary_inclusive():
    # threshold is 2 n ||H^-1 C_z H^-H||; equality is admissible
    assert cap.check_assumptions(scalar_spec(power=2.0)) == []
    assert [v.name for v in cap.check_assumptions(scalar_spec(power=1.999999))] \
        == [cap.HIGH_SNR]


def test_capacity_at_the_largest_budgets():
    # n log(pi e L) overflows from L of about 2.1e307; the capacity is n log L for H = C_z = I
    for n, power in ((2, 1.7e308), (1, 1.7e308), (2, 5e307)):
        spec = cap.ChannelSpec(h=np.eye(n), noise=so.SecondOrderPair.proper(np.eye(n)),
                               power=power)
        res = cap.solve_capacity(spec)
        level = (power + n) / n
        assert res.water_level == level
        assert res.capacity_nats == pytest.approx(n * np.log(level), rel=1e-15)
        mi = cap.gaussian_mutual_information(spec, res.input_pair).value
        assert mi == pytest.approx(res.capacity_nats, rel=1e-15)
        if power == 1.7e308 and n == 2:
            assert res.capacity_nats == pytest.approx(1418.0674, abs=1e-4)

def test_capacity_scalar_proper():
    res = cap.solve_capacity(scalar_spec())
    assert res.capacity_nats == pytest.approx(np.log(3.0), abs=1e-12)
    assert res.water_level == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(res.input_pair.cov, [[2.0]], atol=1e-12)
    np.testing.assert_allclose(res.input_pair.pcov, [[0.0]], atol=1e-12)


def test_capacity_scalar_improper():
    res = cap.solve_capacity(scalar_spec(p_z=0.5))
    assert res.capacity_nats == pytest.approx(np.log(3.0) - 0.5 * np.log(0.75), abs=1e-12)
    # the optimal input mirrors the noise pseudo-covariance with opposite sign
    np.testing.assert_allclose(res.input_pair.pcov, [[-0.5]], atol=1e-12)
    np.testing.assert_allclose(res.spectrum, [0.5], atol=1e-12)


def test_capacity_two_dim_proper():
    spec = cap.ChannelSpec(h=np.eye(2), noise=so.SecondOrderPair.proper(np.eye(2)),
                           power=8.0)
    res = cap.solve_capacity(spec)
    assert res.capacity_nats == pytest.approx(2 * np.log(5.0), abs=1e-12)
    assert res.water_level == pytest.approx(5.0, abs=1e-12)


def test_capacity_raises_on_violations():
    for solve in (cap.solve_capacity, cap.capacity_loss):
        with pytest.raises(AssumptionViolated) as err:
            solve(scalar_spec(power=0.5))
        assert [v.name for v in err.value.violations] == [cap.HIGH_SNR]
        assert cap.HIGH_SNR in str(err.value)


def test_a_zero_power_budget_is_below_the_threshold_even_where_it_underflows():
    # H^-1 C_z H^-H = 1e-340 underflows to 0, so the threshold reads 0
    def spec(power):
        return cap.ChannelSpec(h=[[1e170]], noise=so.SecondOrderPair.proper(np.eye(1)),
                               power=power)

    assert [v.name for v in cap.check_assumptions(spec(0.0))] == [cap.HIGH_SNR]
    with pytest.raises(AssumptionViolated) as err:
        cap.solve_capacity(spec(0.0))
    assert [v.name for v in err.value.violations] == [cap.HIGH_SNR]
    # a positive budget on the same channel is still solved: log(S |h|^2 / C_z)
    assert cap.solve_capacity(spec(1e-300)).capacity_nats == 92.1034037197619


def test_solved_input_respects_budget_and_validity():
    rng = np.random.default_rng(101)
    for _ in range(20):
        spec = verify._random_specs(rng, int(rng.integers(1, 5)), 1)[0]
        res = cap.solve_capacity(spec)
        assert np.trace(res.input_pair.cov).real == pytest.approx(spec.power, rel=1e-10)
        assert so.validate_pair(res.input_pair.cov, res.input_pair.pcov).valid
        h_inv = np.linalg.inv(spec.h)
        np.testing.assert_allclose(res.input_pair.pcov,
                                   -h_inv @ spec.noise.pcov @ h_inv.T, atol=1e-10)


def test_capacity_loss_scalar_values():
    loss = cap.capacity_loss(scalar_spec(p_z=0.5))
    np.testing.assert_allclose(loss.mus, [1.0 / 6.0], atol=1e-12)
    assert loss.delta_c_nats == pytest.approx(-0.5 * np.log(35.0 / 36.0), abs=1e-12)
    proper = cap.capacity_loss(scalar_spec()).delta_c_nats
    assert proper == 0.0 and np.copysign(1.0, proper) == 1.0  # +0.0, not -0.0


def test_capacity_loss_formula_and_bound():
    rng = np.random.default_rng(102)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        spec = verify._random_specs(rng, n, 1)[0]
        loss = cap.capacity_loss(spec)
        h_inv = np.linalg.inv(spec.h)
        t = np.trace(h_inv @ spec.noise.cov @ h_inv.conj().T).real
        mus_oracle = np.linalg.svd(n / (spec.power + t) * (h_inv @ spec.noise.pcov @ h_inv.T),
                                   compute_uv=False)
        np.testing.assert_allclose(loss.mus, mus_oracle, atol=1e-10)
        expected = -0.5 * np.sum(np.log1p(-mus_oracle**2))
        assert loss.delta_c_nats == pytest.approx(expected, abs=1e-10)
        assert 0.0 <= loss.delta_c_nats < n * np.log(2.0 / np.sqrt(3.0))


def test_improper_noise_capacity_bonus():
    # improper noise is exploitable: capacity exceeds the proper-noise twin by
    # -1/2 sum log(1 - lambda_i^2)
    spec = scalar_spec(p_z=0.5)
    twin = scalar_spec(p_z=0.0)
    bonus = cap.solve_capacity(spec).capacity_nats - cap.solve_capacity(twin).capacity_nats
    assert bonus == pytest.approx(-0.5 * np.log(1 - 0.25), abs=1e-12)
    assert bonus > 0


def test_gaussian_mutual_information_scalar():
    spec = scalar_spec()
    res = cap.solve_capacity(spec)
    mi = cap.gaussian_mutual_information(spec, res.input_pair)
    assert mi.value == pytest.approx(np.log(3.0), abs=1e-12)
    assert (mi.method, mi.stderr) == (entropy.CLOSED_FORM, None)


def test_gaussian_mutual_information_guards():
    spec = scalar_spec()
    rich = so.SecondOrderPair.proper(5.0 * np.eye(1))
    with pytest.raises(PowerExceeded):
        cap.gaussian_mutual_information(spec, rich)
    with pytest.raises(InvalidPair):
        cap.gaussian_mutual_information(
            spec, so.SecondOrderPair(cov=np.eye(1), pcov=np.array([[2.0]])))


def test_gaussian_mutual_information_rejects_an_input_of_another_dimension():
    spec = cap.ChannelSpec(np.eye(2), so.SecondOrderPair.proper(np.eye(2)), 100.0)
    with pytest.raises(DimensionMismatch, match="channel and input dimensions differ"):
        cap.gaussian_mutual_information(spec, so.SecondOrderPair.proper(np.eye(3)))


def test_gaussian_mutual_information_equals_capacity_at_large_budgets():
    # the solved input's trace meets the budget up to round-off relative to S
    beyond_absolute_slack = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        spec = verify._random_specs(rng, int(rng.integers(2, 7)), 1)[0]
        for factor in (1e6, 1e9, 1e12):
            big = cap.ChannelSpec(h=spec.h, noise=spec.noise, power=spec.power * factor)
            res = cap.solve_capacity(big)
            beyond_absolute_slack += np.trace(res.input_pair.cov).real > big.power + 1e-8
            mi = cap.gaussian_mutual_information(big, res.input_pair)
            assert mi.value == pytest.approx(res.capacity_nats, rel=1e-12)
    assert beyond_absolute_slack > 0

