"""End-to-end acceptance checks, one test per criterion.

Every criterion runs at its stated tolerance with pinned seeds and records a
visible PASS/FAIL line (printed in the terminal summary). Monte Carlo
criteria use N = 2e5 and k = 4; the sampled data for the entropy sandwich
and the divergence criterion is shared through a module-scoped fixture.
"""

import numpy as np
import pytest
from scipy.special import i0e, i1e
from scipy.stats import kstest

from conftest import record_criterion
from improper import (
    ChannelSpec,
    SampleSet,
    SecondOrderPair,
    analog,
    capacity as cap,
    entropy,
    linalg,
    second_order as so,
    transforms as tf,
)

LOG_PI_E = np.log(np.pi * np.e)
N_MC = 200_000
K_MC = 4


def random_complex(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_valid_pair(rng, n, lam_max):
    """Pair whose circularity spectrum has the exact requested maximum."""
    a = random_complex(rng, n, n)
    c = a @ a.conj().T + 0.1 * np.eye(n)
    b = linalg.generalized_cholesky(c)
    lams = np.sort(rng.random(n))[::-1]
    lams = lams / lams[0] * lam_max if lams[0] > 0 else np.full(n, float(lam_max))
    q = np.linalg.qr(random_complex(rng, n, n))[0]
    p = b @ (q * lams) @ q.T @ b.T
    return SecondOrderPair(cov=c, pcov=0.5 * (p + p.T))


# ---------------------------------------------------------------------------
# criterion 1: embedding algebra identities on random matrices


def test_criterion_01_embedding_algebra():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n, m, k = (int(v) for v in rng.integers(1, 9, size=3))
        a = random_complex(rng, n, m)
        b = random_complex(rng, m, k)
        a2 = random_complex(rng, n, m)
        checks = [
            (linalg.overline_map(a + a2),
             linalg.overline_map(a) + linalg.overline_map(a2)),
            (linalg.overline_map(a @ b),
             linalg.overline_map(a) @ linalg.overline_map(b)),
            (linalg.underline_map(a @ b),
             linalg.overline_map(a) @ linalg.underline_map(b)),
            (linalg.underline_map(a @ b.conj()),
             linalg.underline_map(a) @ linalg.overline_map(b)),
            (linalg.overline_map(a.conj().T), linalg.overline_map(a).T),
        ]
        sq = random_complex(rng, n, n) + 2 * np.eye(n)
        checks.append((linalg.overline_map(np.linalg.inv(sq)),
                       np.linalg.inv(linalg.overline_map(sq))))
        for got, expected in checks:
            scale = max(np.linalg.norm(expected), 1e-12)
            worst = max(worst, np.linalg.norm(got - expected) / scale)
        det = abs(np.linalg.det(sq)) ** 2
        worst = max(worst, abs(np.linalg.det(linalg.overline_map(sq)) - det) / det)
    passed = worst <= 1e-8
    record_criterion(1, passed, f"embedding identities, max rel err {worst:.2e} (tol 1e-8)")
    assert passed


# ---------------------------------------------------------------------------
# criterion 2: Takagi reconstruction and underline eigenvalue pairing


def test_criterion_02_takagi_and_underline_eigs():
    rng = np.random.default_rng(1002)
    worst_rec = 0.0
    worst_eig = 0.0
    for i in range(100):
        n = int(rng.integers(1, 9))
        if i % 3 == 0:
            q0 = np.linalg.qr(random_complex(rng, n, n))[0]
            vals = np.sort(rng.random(max(1, (n + 1) // 2)))[::-1]
            sig = np.repeat(vals, 2)[:n]
            a = (q0 * sig) @ q0.T
        else:
            g = random_complex(rng, n, n)
            a = 0.5 * (g + g.T)
        fac = linalg.takagi(a)
        scale = max(np.linalg.norm(a), 1e-12)
        worst_rec = max(worst_rec, np.linalg.norm(fac.reconstruct() - a) / scale)

        eigs = np.linalg.eigvalsh(linalg.underline_map(a))[::-1]
        sigma = np.linalg.svd(a, compute_uv=False)
        expected = np.sort(np.concatenate([sigma, -sigma]))[::-1]
        worst_eig = max(worst_eig, float(np.max(np.abs(eigs - expected))))
    passed = worst_rec <= 1e-8 and worst_eig <= 1e-8
    record_criterion(2, passed,
                     f"takagi rel err {worst_rec:.2e}, underline eig err {worst_eig:.2e} "
                     f"(tol 1e-8, repeated spectra included)")
    assert passed


# ---------------------------------------------------------------------------
# criterion 3: validity test vs brute-force PSD oracle, boundary included


def brute_force_valid(c, p):
    """Independent oracle: build the real covariance from Re/Im blocks, test PSD."""
    c = np.asarray(c, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if np.linalg.norm(c - c.conj().T) > 1e-10 * max(np.linalg.norm(c), 1e-12):
        return False
    eig_c = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    if eig_c[0] <= 1e-12 * max(abs(eig_c[0]), abs(eig_c[-1]), 1e-12):
        return False
    if np.linalg.norm(p - p.T) > 1e-10 * max(np.linalg.norm(p), 1e-12):
        return False
    s = 0.5 * np.block([
        [c.real + p.real, -c.imag + p.imag],
        [c.imag + p.imag, c.real - p.real],
    ])
    eig_s = np.linalg.eigvalsh(0.5 * (s + s.T))
    return bool(eig_s[0] >= -1e-9 * max(abs(eig_s[0]), abs(eig_s[-1]), 1e-12))


def test_criterion_03_validity_oracle():
    rng = np.random.default_rng(1003)
    disagreements = 0
    total = 0
    for i in range(500):
        n = int(rng.integers(1, 6))
        if i < 9:
            lam = [1.0 - 1e-6, 1.0, 1.0 + 1e-6][i % 3]
            pair = random_valid_pair(rng, n, lam)
            c, p = pair.cov, pair.pcov
        elif i % 7 == 0:
            c = random_complex(rng, n, n)
            c = c @ c.conj().T + 0.1 * np.eye(n)
            p = random_complex(rng, n, n)
        elif i % 11 == 0:
            c = random_complex(rng, n, n)
            p = np.zeros((n, n), dtype=complex)
        else:
            pair = random_valid_pair(rng, n, float(1.4 * rng.random()))
            c, p = pair.cov, pair.pcov
        if so.validate_pair(c, p).valid != brute_force_valid(c, p):
            disagreements += 1
        total += 1
    passed = disagreements == 0
    record_criterion(3, passed,
                     f"{total} pairs incl. boundary lambda in {{1-1e-6, 1, 1+1e-6}}, "
                     f"{disagreements} oracle disagreements")
    assert passed


# ---------------------------------------------------------------------------
# criterion 4: entropy closed forms, complex route vs real route


def test_criterion_04_entropy_closed_forms():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        pair = random_valid_pair(rng, n, float(0.95 * rng.random()))
        h_c = entropy.complex_gaussian_entropy(pair).value
        h_r = entropy.real_gaussian_entropy(so.real_covariance(pair)).value
        worst = max(worst, abs(h_c - h_r))
    scalar0 = entropy.complex_gaussian_entropy(
        SecondOrderPair(cov=np.eye(1), pcov=np.zeros((1, 1)))).value
    scalar8 = entropy.complex_gaussian_entropy(
        SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.8]]))).value
    exact0 = abs(scalar0 - LOG_PI_E)
    exact8 = abs(scalar8 - (LOG_PI_E + 0.5 * np.log(1 - 0.64)))
    passed = worst <= 1e-9 and exact0 <= 5e-15 and exact8 <= 5e-15
    record_criterion(4, passed,
                     f"route diff {worst:.2e} (tol 1e-9); scalar errs "
                     f"{exact0:.1e}/{exact8:.1e} (tol 5e-15)")
    assert passed


# ---------------------------------------------------------------------------
# criteria 5 and 6 share one pinned Monte Carlo draw (lambda = 0.8, N = 2e5)


@pytest.fixture(scope="module")
def improper_draw():
    pair = SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.8]]))
    x = so.sample_gaussian(pair, N_MC, seed=2024)
    x_analog = analog.circularize(x, seed=2025)
    return pair, x, x_analog


def test_criterion_05_entropy_sandwich(improper_draw):
    pair, x, x_analog = improper_draw
    h_x = entropy.knn_entropy(x, k=K_MC).value
    h_a = entropy.knn_entropy(x_analog, k=K_MC).value
    closed = LOG_PI_E + 0.5 * np.log(0.36)
    ok_order = (h_x + 0.02 < h_a) and (h_a < LOG_PI_E - 0.02)
    ok_value = abs(h_x - closed) <= 0.03
    passed = ok_order and ok_value
    record_criterion(5, passed,
                     f"h(x)={h_x:.4f} (closed {closed:.4f}, tol 0.03), "
                     f"h(analog)={h_a:.4f} in ({h_x + 0.02:.4f}, {LOG_PI_E - 0.02:.4f})")
    assert passed


def quadrature_divergence_oracle(lam):
    """D(x || analog) for the scalar improper Gaussian, via the conditional
    phase entropy: integrating the angle out analytically leaves a radial
    integral in the Bessel ratios (scipy's scaled I0/I1, nothing shared with
    the library's Bessel code)."""
    s2 = 1.0 - lam * lam
    r = np.linspace(0.0, 12.0, 40_001)
    arg = lam * r * r / s2
    radial = 2.0 * r / np.sqrt(s2) * np.exp(-(r * r) / s2 + arg) * i0e(arg)
    neg_h_cond = arg * i1e(arg) / i0e(arg) - (np.log(i0e(arg)) + arg)
    return float(np.trapezoid(radial * neg_h_cond, r))


def test_criterion_06_divergence_to_analog(improper_draw):
    pair, x, _ = improper_draw
    oracle = quadrature_divergence_oracle(0.8)
    frozen = 0.4676188675
    assert abs(oracle - frozen) <= 1e-6  # quadrature route pinned by a second route

    d = analog.divergence_to_analog(x, k=K_MC)
    competitor = so.sample_gaussian(SecondOrderPair.proper(np.eye(1)), N_MC, seed=2026)
    kl_competitor = entropy.knn_kl_divergence(x, competitor, k=K_MC)
    ok_oracle = abs(d - oracle) <= 0.05
    ok_minimal = d <= kl_competitor + 0.05
    passed = ok_oracle and ok_minimal
    record_criterion(6, passed,
                     f"divergence {d:.4f} vs quadrature {oracle:.4f} (tol 0.05); "
                     f"circular competitor KL {kl_competitor:.4f} (minimality ok: {ok_minimal})")
    assert passed


# ---------------------------------------------------------------------------
# criterion 7: capacity worked examples and randomized admissible specs


def random_admissible_spec(rng, n):
    h = np.eye(n) + 0.1 * random_complex(rng, n, n)
    a = random_complex(rng, n, n)
    c_z = a @ a.conj().T + 0.1 * np.eye(n)
    b = linalg.generalized_cholesky(c_z)
    lams = 0.9 * rng.random(n)
    q = np.linalg.qr(random_complex(rng, n, n))[0]
    p_z = b @ (q * lams) @ q.T @ b.T
    noise = SecondOrderPair(cov=c_z, pcov=0.5 * (p_z + p_z.T))
    h_inv = np.linalg.inv(h)
    power = 2.5 * n * np.linalg.norm(h_inv @ c_z @ h_inv.conj().T, 2)
    return ChannelSpec(h=h, noise=noise, power=float(power))


def test_criterion_07_capacity_worked_and_randomized():
    scalar = ChannelSpec(h=np.eye(1), noise=SecondOrderPair.proper(np.eye(1)), power=2.0)
    improper = ChannelSpec(h=np.eye(1), noise=SecondOrderPair(
        cov=np.eye(1), pcov=np.array([[0.5]])), power=2.0)
    two_dim = ChannelSpec(h=np.eye(2), noise=SecondOrderPair.proper(np.eye(2)), power=8.0)
    errs = [
        abs(cap.solve_capacity(scalar).capacity_nats - np.log(3.0)),
        abs(cap.solve_capacity(improper).capacity_nats
            - (np.log(3.0) - 0.5 * np.log(0.75))),
        abs(cap.solve_capacity(two_dim).capacity_nats - 2.0 * np.log(5.0)),
    ]
    worked = max(errs)

    rng = np.random.default_rng(1007)
    budget_err = 0.0
    all_valid = True
    for _ in range(100):
        spec = random_admissible_spec(rng, int(rng.integers(1, 7)))
        res = cap.solve_capacity(spec)
        tr = float(np.trace(res.input_pair.cov).real)
        budget_err = max(budget_err, abs(tr - spec.power) / spec.power)
        all_valid &= so.validate_pair(res.input_pair.cov, res.input_pair.pcov).valid
    passed = worked <= 1e-12 and budget_err <= 1e-10 and all_valid
    record_criterion(7, passed,
                     f"worked-example err {worked:.2e} (tol 1e-12); 100 random specs: "
                     f"budget err {budget_err:.2e}, input pairs all valid: {all_valid}")
    assert passed


# ---------------------------------------------------------------------------
# criterion 8: capacity loss formula, bound, and Monte Carlo MI gap


def test_criterion_08_capacity_loss():
    rng = np.random.default_rng(1008)
    formula_err = 0.0
    bound_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        spec = random_admissible_spec(rng, n)
        loss = cap.capacity_loss(spec)
        h_inv = np.linalg.inv(spec.h)
        t = float(np.trace(h_inv @ spec.noise.cov @ h_inv.conj().T).real)
        mus = np.linalg.svd((n / (spec.power + t)) * (h_inv @ spec.noise.pcov @ h_inv.T),
                            compute_uv=False)
        independent = -0.5 * float(np.sum(np.log1p(-(mus**2))))
        formula_err = max(formula_err, abs(loss.delta_c_nats - independent))
        bound_ok &= 0.0 <= loss.delta_c_nats < n * np.log(2.0 / np.sqrt(3.0))

    spec = ChannelSpec(h=np.eye(1), noise=SecondOrderPair(
        cov=np.eye(1), pcov=np.array([[0.5]])), power=2.0)
    delta_true = cap.capacity_loss(spec).delta_c_nats
    optimal = cap.solve_capacity(spec).input_pair
    proper_design = SecondOrderPair(cov=optimal.cov, pcov=np.zeros((1, 1)))
    mi_opt = cap.mc_mutual_information(spec, optimal, N_MC, k=K_MC, seed=1077)
    mi_pd = cap.mc_mutual_information(spec, proper_design, N_MC, k=K_MC, seed=1077)
    gap = mi_opt.value - mi_pd.value
    mc_ok = abs(gap - delta_true) <= 0.05
    passed = formula_err <= 1e-10 and bound_ok and mc_ok
    record_criterion(8, passed,
                     f"loss formula err {formula_err:.2e} (tol 1e-10), bound ok: {bound_ok}; "
                     f"MC gap {gap:.4f} vs {delta_true:.4f} (tol 0.05)")
    assert passed


# ---------------------------------------------------------------------------
# criterion 9: circularizing the input never loses rate (proper noise)


def test_criterion_09_circular_input_optimality():
    spec = ChannelSpec(h=np.eye(1), noise=SecondOrderPair.proper(np.eye(1)), power=2.0)
    rng = np.random.default_rng(1009)

    bpsk = (rng.integers(0, 2, N_MC) * 2.0 - 1.0).astype(complex)[:, None]
    improper = so.sample_gaussian(
        SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.9]])), N_MC, seed=3002).data
    u = 2.0 * rng.random((N_MC, 2)) - 1.0
    rotated_uniform = ((u[:, 0] + 1j * u[:, 1]) * np.exp(2j * np.pi * 0.15))[:, None]

    details = []
    passed = True
    for name, data, seed in [("bpsk", bpsk, 3101), ("improper-gauss", improper, 3102),
                             ("rotated-uniform", rotated_uniform, 3103)]:
        mi1, mi2 = cap.verify_circular_optimality(
            spec, SampleSet(data=data, seed=0), k=K_MC, seed=seed)
        se = float(np.hypot(mi1.stderr, mi2.stderr))
        ok = mi2.value >= mi1.value - 3.0 * se
        passed &= ok
        details.append(f"{name}: {mi1.value:.4f} -> {mi2.value:.4f} (3se {3 * se:.4f})")
    record_criterion(9, passed, "; ".join(details))
    assert passed


# ---------------------------------------------------------------------------
# criterion 10: transform round trips, density normalization, uniformity


def test_criterion_10_transforms():
    rng = np.random.default_rng(1010)
    x = random_complex(rng, 2000, 3)
    p = tf.real_to_polar(x)
    rt_polar = float(np.max(np.abs(tf.polar_to_real(p) - x)))
    back = tf.sheared_to_polar(tf.polar_to_sheared(p))
    dphi = np.abs(back.phi - p.phi)
    rt_shear = float(max(np.max(np.abs(back.r - p.r)),
                         np.max(np.minimum(dphi, 1.0 - dphi))))

    def gauss(xr):
        return np.exp(-np.sum(xr**2, axis=-1)) / np.pi

    r = np.linspace(0.0, 8.0, 2001)
    phi = np.linspace(0.0, 1.0, 201)[:-1]
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    polar_vals = tf.polar_density(gauss, tf.PolarPoint(r=rr[..., None], phi=pp[..., None]))
    sheared_vals = tf.sheared_density(
        gauss, tf.PolarPoint(r=rr[..., None], phi=pp[..., None]))
    int_polar = float(np.trapezoid(polar_vals.mean(axis=1), r))
    int_sheared = float(np.trapezoid(sheared_vals.mean(axis=1), r))

    x_imp = so.sample_gaussian(
        SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.8]])), 100_000, seed=4001)
    rot = analog.circularize(x_imp, seed=4002)
    theta = tf.polar_to_sheared(tf.real_to_polar(rot.data)).phi[:, -1]
    ks = float(kstest(theta, "uniform").statistic)

    passed = (rt_polar <= 1e-12 and rt_shear <= 1e-12
              and abs(int_polar - 1.0) <= 1e-4 and abs(int_sheared - 1.0) <= 1e-4
              and ks <= 0.01)
    record_criterion(10, passed,
                     f"round trips {max(rt_polar, rt_shear):.1e} (tol 1e-12); integrals "
                     f"{int_polar:.6f}/{int_sheared:.6f} (tol 1e-4); phase KS {ks:.4f} "
                     f"(tol 0.01 at N=1e5)")
    assert passed
