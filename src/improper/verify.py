"""Seeded property suites behind the `verify` CLI subcommand.

Four suites (algebra, entropy, analog, capacity) re-check the library's
mathematical identities and statistical contracts end to end. Each check
returns a PropertyResult with a measured margin so failures are diagnosable
from the report alone.

Statistical tolerances are calibrated at a reference sample size (stated
per check); when a suite runs with fewer samples the tolerance is widened
by sqrt(N_ref / N), the CLT rate, so smoke runs at small N remain
meaningful. Deterministic identities ignore the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analog, capacity, entropy, linalg, second_order, transforms
from .errors import DegenerateConditional

DEFAULT_SAMPLES = 100_000
SUITES = ("algebra", "entropy", "analog", "capacity", "all")


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed, detail: str) -> PropertyResult:
    return PropertyResult(name=name, passed=bool(passed), detail=detail)


def _rel_err(actual, expected) -> float:
    scale = max(np.linalg.norm(np.atleast_1d(expected)), 1e-12)
    return float(np.linalg.norm(np.atleast_1d(actual - expected)) / scale)


def _scaled(tol: float, n: int, n_ref: int) -> float:
    if n >= n_ref:
        return tol
    return tol * float(np.sqrt(n_ref / n))


def _random_complex(rng, n, m) -> np.ndarray:
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _random_pair(rng, n, lam_max=None) -> second_order.SecondOrderPair:
    """Random valid pair; if lam_max is given the spectrum is scaled to hit it."""
    a = _random_complex(rng, n, n)
    c = a @ a.conj().T + 0.1 * np.eye(n)
    b = linalg.generalized_cholesky(c)
    lams = np.sort(rng.random(n))[::-1]
    if lam_max is not None:
        lams = lams / lams[0] * lam_max if lams[0] > 0 else np.full(n, lam_max)
    q = np.linalg.qr(_random_complex(rng, n, n))[0]
    p = b @ (q * lams) @ q.T @ b.T
    return second_order.SecondOrderPair(cov=c, pcov=0.5 * (p + p.T))


# ---------------------------------------------------------------------------
# algebra suite

def suite_algebra(seed: int, samples: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = {"prod": 0.0, "mixed": 0.0, "conj": 0.0, "transpose": 0.0, "det": 0.0}
    ortho_ok = True
    for _ in range(100):
        n, m, k = rng.integers(1, 9, size=3)
        a = _random_complex(rng, n, m)
        b = _random_complex(rng, m, k)
        ab = a @ b
        worst["prod"] = max(worst["prod"], _rel_err(
            linalg.overline_map(ab), linalg.overline_map(a) @ linalg.overline_map(b)))
        worst["prod"] = max(worst["prod"], _rel_err(
            linalg.underline_map(ab), linalg.overline_map(a) @ linalg.underline_map(b)))
        bb = _random_complex(rng, m, k)
        worst["mixed"] = max(worst["mixed"], _rel_err(
            linalg.underline_map(a @ bb.conj()),
            linalg.underline_map(a) @ linalg.overline_map(bb)))
        worst["transpose"] = max(worst["transpose"], _rel_err(
            linalg.overline_map(a.conj().T), linalg.overline_map(a).T))
        sq = _random_complex(rng, n, n)
        worst["det"] = max(worst["det"], abs(
            np.linalg.det(linalg.overline_map(sq)) - abs(np.linalg.det(sq)) ** 2
        ) / max(abs(np.linalg.det(sq)) ** 2, 1e-12))
        u = np.linalg.qr(_random_complex(rng, n, n))[0]
        ou = linalg.overline_map(u)
        ortho_ok &= np.allclose(ou.T @ ou, np.eye(2 * int(n)), atol=1e-10)
    out.append(_result("embedding multiplicativity", worst["prod"] <= 1e-10,
                       f"max rel err {worst['prod']:.2e} (tol 1e-10)"))
    out.append(_result("embedding mixed product with conjugate", worst["mixed"] <= 1e-10,
                       f"max rel err {worst['mixed']:.2e} (tol 1e-10)"))
    out.append(_result("embedding transpose identity", worst["transpose"] <= 1e-12,
                       f"max rel err {worst['transpose']:.2e}"))
    out.append(_result("unitary maps to orthogonal", ortho_ok, "100 random unitaries"))
    out.append(_result("det(overline) = |det|^2", worst["det"] <= 1e-8,
                       f"max rel err {worst['det']:.2e} (tol 1e-8)"))

    takagi_err = 0.0
    sigma_err = 0.0
    for i in range(100):
        n = int(rng.integers(1, 9))
        if i % 3 == 0:
            # repeated singular values by construction
            q = np.linalg.qr(_random_complex(rng, n, n))[0]
            vals = np.sort(rng.random(max(1, (n + 1) // 2)))[::-1]
            sig = np.repeat(vals, 2)[:n]
            a = (q * sig) @ q.T
        else:
            g = _random_complex(rng, n, n)
            a = 0.5 * (g + g.T)
        fac = linalg.takagi(a)
        scale = max(np.linalg.norm(a), 1e-12)
        takagi_err = max(takagi_err, np.linalg.norm(fac.reconstruct() - a) / scale)
        sv = np.linalg.svd(a, compute_uv=False)
        sigma_err = max(sigma_err, float(np.max(np.abs(fac.sigma - sv)) / max(sv[0], 1e-12)))
    out.append(_result("takagi reconstruction", takagi_err <= 1e-8,
                       f"max rel err {takagi_err:.2e} (tol 1e-8, incl. repeated spectra)"))
    out.append(_result("takagi sigma = singular values", sigma_err <= 1e-10,
                       f"max rel err {sigma_err:.2e}"))

    eig_err = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 7))
        g = _random_complex(rng, n, n)
        p = 0.5 * (g + g.T)
        eigs = np.linalg.eigvalsh(linalg.underline_map(p))[::-1]
        sigma = np.linalg.svd(p, compute_uv=False)
        expected = np.sort(np.concatenate([sigma, -sigma]))[::-1]
        eig_err = max(eig_err, float(np.max(np.abs(eigs - expected))))
    out.append(_result("underline(P) eigenvalues are +/- singular values",
                       eig_err <= 1e-8, f"max abs err {eig_err:.2e} (tol 1e-8)"))

    agree = True
    checked = 0
    for i in range(500):
        n = int(rng.integers(1, 6))
        if i < 6:
            lam = [1 - 1e-6, 1.0, 1 + 1e-6][i % 3]
            pair = _random_pair(rng, n, lam_max=lam)
            c, p = pair.cov, pair.pcov
        elif i % 7 == 0:
            c = _random_complex(rng, n, n)
            c = c @ c.conj().T + 0.1 * np.eye(n)
            p = _random_complex(rng, n, n)  # generically not symmetric
        elif i % 11 == 0:
            c = _random_complex(rng, n, n)  # generically not Hermitian
            p = np.zeros((n, n), dtype=complex)
        else:
            pair = _random_pair(rng, n, lam_max=float(rng.random() * 1.4))
            c, p = pair.cov, pair.pcov
        verdict = second_order.validate_pair(c, p)
        oracle = _validity_oracle(c, p)
        agree &= verdict.valid == oracle
        checked += 1
    out.append(_result("pair validity matches PSD oracle", agree,
                       f"{checked} random pairs incl. boundary spectra"))

    det_err = 0.0
    rt_err = 0.0
    spec_inv = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        pair = _random_pair(rng, n, lam_max=float(0.9 * rng.random()))
        s = second_order.real_covariance(pair)
        lams = second_order.circularity_spectrum(pair)
        det_c = np.linalg.det(pair.cov).real
        expected = 4.0 ** (-n) * det_c**2 * float(np.prod(1 - lams**2))
        det_err = max(det_err, abs(np.linalg.det(s) - expected) / max(abs(expected), 1e-12))
        back = second_order.pair_from_real_covariance(s)
        # P enters S only through sums with C, so both round-trip errors are
        # measured against the scale of the embedded pair, not |P| alone.
        pair_scale = np.linalg.norm(pair.cov) + np.linalg.norm(pair.pcov)
        rt_err = max(rt_err,
                     float(np.linalg.norm(back.cov - pair.cov) / pair_scale),
                     float(np.linalg.norm(back.pcov - pair.pcov) / pair_scale))
        a = _random_complex(rng, n, n) + 2 * np.eye(n)
        moved = second_order.SecondOrderPair(
            cov=a @ pair.cov @ a.conj().T, pcov=a @ pair.pcov @ a.T)
        spec_inv = max(spec_inv, float(np.max(np.abs(
            second_order.circularity_spectrum(moved) - lams))))
    out.append(_result("det(real covariance) identity", det_err <= 1e-6,
                       f"max rel err {det_err:.2e} (tol 1e-6)"))
    out.append(_result("real covariance round-trip", rt_err <= 1e-12,
                       f"max err {rt_err:.2e} relative to |C|+|P| (tol 1e-12)"))
    out.append(_result("spectrum congruence invariance", spec_inv <= 1e-8,
                       f"max abs err {spec_inv:.2e}"))

    x = _random_complex(rng, 200, 3)
    p = transforms.real_to_polar(x)
    rt = np.max(np.abs(transforms.polar_to_real(p) - x))
    s = transforms.polar_to_sheared(p)
    rt2 = np.max(np.abs(transforms.polar_to_real(transforms.sheared_to_polar(s)) - x))
    out.append(_result("transform round-trips", max(rt, rt2) <= 1e-12,
                       f"max abs err {max(rt, rt2):.2e}"))

    integral = _polar_density_integral()
    out.append(_result("polar density integrates to 1", abs(integral - 1) <= 1e-4,
                       f"integral {integral:.6f} (tol 1e-4)"))
    return out


def _validity_oracle(c, p) -> bool:
    """Brute-force validity: Hermitian non-singular C, symmetric P, PSD real covariance."""
    c = np.asarray(c, dtype=complex)
    p = np.asarray(p, dtype=complex)
    scale_c = max(np.linalg.norm(c), 1e-12)
    if np.linalg.norm(c - c.conj().T) > 1e-10 * scale_c:
        return False
    eig_c = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    eig_scale = max(abs(eig_c[0]), abs(eig_c[-1]), 1e-12)
    if eig_c[0] <= 1e-12 * eig_scale:
        return False
    scale_p = max(np.linalg.norm(p), 1e-12)
    if np.linalg.norm(p - p.T) > 1e-10 * scale_p:
        return False
    s = 0.5 * linalg.overline_map(c) + 0.5 * linalg.underline_map(p)
    s = 0.5 * (s + s.T)
    eig_s = np.linalg.eigvalsh(s)
    s_scale = max(abs(eig_s[0]), abs(eig_s[-1]), 1e-12)
    return bool(eig_s[0] >= -1e-9 * s_scale)


def _polar_density_integral() -> float:
    # scalar circular Gaussian: integrate (r, phi) density on a grid
    f = lambda xr: np.exp(-np.sum(xr**2, axis=-1)) / np.pi
    r = np.linspace(0, 8, 2001)
    phi = np.linspace(0, 1, 201)[:-1]  # periodic: drop duplicate endpoint
    rr, pp = np.meshgrid(r, phi, indexing="ij")
    vals = transforms.polar_density(f, transforms.PolarPoint(r=rr[..., None], phi=pp[..., None]))
    return float(np.trapezoid(vals.mean(axis=1), r))


# ---------------------------------------------------------------------------
# entropy suite

def suite_entropy(seed: int, samples: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []
    n_samp = samples

    closed_err = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        pair = _random_pair(rng, n, lam_max=float(0.95 * rng.random()))
        ce = entropy.complex_gaussian_entropy(pair).value
        re = entropy.real_gaussian_entropy(second_order.real_covariance(pair)).value
        closed_err = max(closed_err, abs(ce - re))
    out.append(_result("complex vs real Gaussian closed forms", closed_err <= 1e-9,
                       f"max abs diff {closed_err:.2e} (tol 1e-9)"))

    pair = second_order.SecondOrderPair(cov=np.eye(1), pcov=np.zeros((1, 1)))
    x = second_order.sample_gaussian(pair, n_samp, int(rng.integers(2**32)))
    h = entropy.knn_entropy(x)
    tol = _scaled(0.02, n_samp, 100_000)
    err = abs(h.value - np.log(np.pi * np.e))
    out.append(_result("kNN entropy vs circular Gaussian", err <= tol,
                       f"err {err:.4f} (tol {tol:.4f} at N={n_samp})"))

    pair8 = second_order.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.8]]))
    x8 = second_order.sample_gaussian(pair8, n_samp, int(rng.integers(2**32)))
    h8 = entropy.knn_entropy(x8)
    tol8 = _scaled(0.03, n_samp, 100_000)
    err8 = abs(h8.value - entropy.complex_gaussian_entropy(pair8).value)
    out.append(_result("kNN entropy vs improper Gaussian closed form", err8 <= tol8,
                       f"err {err8:.4f} (tol {tol8:.4f})"))

    emp = second_order.empirical_pair(x8)
    nm = entropy.neeser_massey_bound(emp.cov).value
    me = entropy.complex_gaussian_entropy(emp).value
    margin_nm = nm + 3 * h8.stderr - h8.value
    margin_me = me + 3 * h8.stderr - h8.value
    out.append(_result("covariance-only entropy bound holds", margin_nm >= 0,
                       f"slack {margin_nm:.4f} nats"))
    out.append(_result("pair entropy bound holds and is tighter", margin_me >= 0 and me < nm,
                       f"slack {margin_me:.4f}, bound gap {nm - me:.4f}"))

    gap = analog.analog_entropy_gap(x8, seed=int(rng.integers(2**32)))
    out.append(_result("circularizing cannot lower entropy",
                       gap >= -3 * np.hypot(h8.stderr, h8.stderr),
                       f"gap {gap:.4f} nats (improper Gaussian input)"))
    mix = np.concatenate([
        second_order.sample_gaussian(pair8, n_samp // 2, int(rng.integers(2**32))).data,
        second_order.sample_gaussian(
            second_order.SecondOrderPair(cov=0.5 * np.eye(1), pcov=np.array([[-0.3]])),
            n_samp - n_samp // 2, int(rng.integers(2**32))).data,
    ])
    mix_set = second_order.SampleSet(data=mix, seed=0)
    h_mix = entropy.knn_entropy(mix_set)
    gap_mix = analog.analog_entropy_gap(mix_set, seed=int(rng.integers(2**32)))
    out.append(_result("circularizing cannot lower entropy (mixture)",
                       gap_mix >= -3 * np.hypot(h_mix.stderr, h_mix.stderr),
                       f"gap {gap_mix:.4f} nats"))

    # sandwich: closed form < h(analog) < covariance-only bound
    rot = analog.circularize(x8, int(rng.integers(2**32)))
    h_rot = entropy.knn_entropy(rot)
    lo = entropy.complex_gaussian_entropy(pair8).value
    hi = entropy.neeser_massey_bound(pair8.cov).value
    # the lower separation (0.47 nats here) is resolvable at any sane N; the
    # upper margin is only 0.04, so it is checked as containment up to noise
    ok = (h_rot.value - lo >= 3 * h_rot.stderr) and (hi - h_rot.value >= -3 * h_rot.stderr)
    out.append(_result("analog entropy sits between the bounds", ok,
                       f"{lo:.4f} < {h_rot.value:.4f} < {hi:.4f} (3se = {3 * h_rot.stderr:.4f})"))

    a = second_order.sample_gaussian(pair, n_samp, int(rng.integers(2**32)))
    b = second_order.sample_gaussian(pair, n_samp, int(rng.integers(2**32)))
    d_same = entropy.knn_kl_divergence(a, b)
    tol_same = _scaled(0.03, n_samp, 100_000)
    out.append(_result("kNN divergence of identical distributions", d_same <= tol_same,
                       f"estimate {d_same:.4f} (tol {tol_same:.4f})"))
    wide = second_order.sample_gaussian(
        second_order.SecondOrderPair.proper(2 * np.eye(1)), n_samp,
        int(rng.integers(2**32)))
    d_scale = entropy.knn_kl_divergence(a, wide)
    true_d = np.log(2) - 0.5
    tol_kl = _scaled(0.05, n_samp, 100_000)
    out.append(_result("kNN divergence vs Gaussian closed form",
                       abs(d_scale - true_d) <= tol_kl,
                       f"estimate {d_scale:.4f}, true {true_d:.4f} (tol {tol_kl:.4f})"))
    return out


# ---------------------------------------------------------------------------
# analog suite

def suite_analog(seed: int, samples: int) -> list[PropertyResult]:
    from scipy import stats  # the KS and kurtosis checks; loaded only here

    rng = np.random.default_rng(seed)
    out = []
    n_samp = samples

    pair = second_order.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.8]]))
    x = second_order.sample_gaussian(pair, n_samp, int(rng.integers(2**32)))
    rot = analog.circularize(x, int(rng.integers(2**32)))
    emp = second_order.empirical_pair(rot)
    p_mag = float(np.max(np.abs(emp.pcov)))
    c_shift = float(np.max(np.abs(emp.cov - second_order.empirical_pair(x).cov)))
    out.append(_result("circularize erases complementary covariance",
                       p_mag <= 5 / np.sqrt(n_samp),
                       f"|P| {p_mag:.4f} (tol {5 / np.sqrt(n_samp):.4f})"))
    out.append(_result("circularize preserves covariance",
                       c_shift <= 50.0 / n_samp,
                       f"|C shift| {c_shift:.2e} (phases cancel in x x^H; "
                       f"only the O(1/N) centering terms differ)"))

    phases = transforms.real_to_polar(rot.data).phi[:, 0]
    half = len(phases) // 2
    ks_ok = True
    detail = []
    for theta in (0.25, 0.5):
        shifted = transforms.mod1(phases[half:] - theta)
        p_val = stats.ks_2samp(phases[:half], shifted).pvalue
        ks_ok &= p_val >= 0.01
        detail.append(f"theta={theta}: p={p_val:.3f}")
    out.append(_result("rotated phases match in distribution", ks_ok, "; ".join(detail)))

    sheared = transforms.polar_to_sheared(transforms.real_to_polar(rot.data))
    theta_col = sheared.phi[:, -1]
    ks_stat = stats.kstest(theta_col, "uniform").statistic
    corr = abs(float(np.corrcoef(theta_col, sheared.r[:, 0])[0, 1]))
    out.append(_result("common phase uniform on [0,1)",
                       ks_stat <= _scaled(0.01, n_samp, 100_000),
                       f"KS distance {ks_stat:.4f}"))
    out.append(_result("common phase uncorrelated with radius",
                       corr <= _scaled(0.02, n_samp, 100_000),
                       f"|corr| {corr:.4f}"))

    kurt = float(stats.kurtosis(rot.data.real[:, 0]))
    se = np.sqrt(24.0 / n_samp)
    out.append(_result("analog of improper Gaussian is non-Gaussian",
                       abs(kurt) > 5 * se,
                       f"excess kurtosis {kurt:.3f} vs 5se = {5 * se:.3f}"))

    # Bessel I0 vs quadrature of its defining integral
    worst = 0.0
    for val in (0.5, 5.0, 50.0):
        theta = np.linspace(0.0, 1.0, 20001)
        quad = np.trapezoid(np.exp(val * np.cos(2 * np.pi * theta)), theta)
        worst = max(worst, abs(analog.bessel_i0(val) - quad) / quad)
    out.append(_result("bessel I0 matches defining integral", worst <= 1e-10,
                       f"max rel err {worst:.2e}"))

    model = analog.analog_gaussian_model(pair)
    proper_pair = second_order.SecondOrderPair.proper(np.eye(1))
    model0 = analog.analog_gaussian_model(proper_pair)
    pts = _random_complex(rng, 50, 1)
    dens0 = analog.analog_gaussian_density(model0, pts)
    closed0 = np.exp(-np.abs(pts[:, 0]) ** 2) / np.pi
    err0 = float(np.max(np.abs(dens0 - closed0) / closed0))
    out.append(_result("analog density reduces to proper Gaussian at lambda=0",
                       err0 <= 1e-12, f"max rel err {err0:.2e}"))

    radius = np.abs(rng.standard_normal(40)) + 0.05
    grid = radius[:, None] * np.exp(2j * np.pi * rng.random(40))[:, None]
    ref = analog.analog_gaussian_density(model, radius[:, None].astype(complex))
    rot_dens = analog.analog_gaussian_density(model, grid)
    phase_dev = float(np.max(np.abs(rot_dens - ref) / ref))
    out.append(_result("analog density is phase-invariant", phase_dev <= 1e-12,
                       f"max rel dev {phase_dev:.2e}"))

    r = np.linspace(0, 12, 4001)
    dens_r = analog.analog_gaussian_density(model, r[:, None].astype(complex))
    integral = float(np.trapezoid(2 * np.pi * r * dens_r, r))
    out.append(_result("analog density integrates to 1", abs(integral - 1) <= 1e-5,
                       f"integral {integral:.7f}"))

    circ = second_order.sample_gaussian(proper_pair, n_samp, int(rng.integers(2**32)))
    d_circ = analog.divergence_to_analog(circ)
    out.append(_result("divergence vanishes for circular input",
                       d_circ <= _scaled(0.03, n_samp, 100_000),
                       f"estimate {d_circ:.4f}"))

    unit_ring = second_order.SampleSet(
        data=np.exp(2j * np.pi * rng.random(2000))[:, None], seed=0)
    try:
        analog.divergence_to_analog(unit_ring)
        out.append(_result("degenerate radius detected", False, "no exception raised"))
    except DegenerateConditional:
        out.append(_result("degenerate radius detected", True,
                           "constant-radius input raises DegenerateConditional"))

    d_x = analog.divergence_to_analog(x)
    gap_x = analog.analog_entropy_gap(x, seed=int(rng.integers(2**32)))
    agree_tol = _scaled(0.05, n_samp, 100_000)
    out.append(_result("divergence agrees with entropy gap",
                       abs(d_x - gap_x) <= agree_tol,
                       f"divergence {d_x:.4f}, gap {gap_x:.4f} (tol {agree_tol:.4f})"))
    return out


# ---------------------------------------------------------------------------
# capacity suite

def _random_spec(rng, n) -> capacity.ChannelSpec:
    """Randomized admissible channel spec (frozen generator used by the tests)."""
    h = np.eye(n) + 0.1 * _random_complex(rng, n, n)
    a = _random_complex(rng, n, n)
    c_z = a @ a.conj().T + 0.1 * np.eye(n)
    pair0 = _random_pair(rng, n, lam_max=float(0.9 * rng.random()))
    b = linalg.generalized_cholesky(c_z)
    b0 = linalg.generalized_cholesky(pair0.cov)
    m = np.linalg.inv(b0) @ pair0.pcov @ np.linalg.inv(b0).T
    p_z = b @ (0.5 * (m + m.T)) @ b.T  # same spectrum, matched to c_z
    g = np.linalg.inv(h) @ c_z @ np.linalg.inv(h).conj().T
    power = 2.5 * n * linalg.operator_norm(g)
    noise = second_order.SecondOrderPair(cov=c_z, pcov=0.5 * (p_z + p_z.T))
    return capacity.ChannelSpec(h=h, noise=noise, power=power)


def suite_capacity(seed: int, samples: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    scalar = capacity.ChannelSpec(
        h=np.eye(1), noise=second_order.SecondOrderPair.proper(np.eye(1)), power=2.0)
    scalar_res = capacity.solve_capacity(scalar)
    err1 = abs(scalar_res.capacity_nats - np.log(3))
    improper_noise = second_order.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.5]]))
    spec2 = capacity.ChannelSpec(h=np.eye(1), noise=improper_noise, power=2.0)
    res2 = capacity.solve_capacity(spec2)
    err2 = abs(res2.capacity_nats - (np.log(3) - 0.5 * np.log(0.75)))
    spec3 = capacity.ChannelSpec(
        h=np.eye(2), noise=second_order.SecondOrderPair.proper(np.eye(2)), power=8.0)
    res3 = capacity.solve_capacity(spec3)
    err3 = abs(res3.capacity_nats - 2 * np.log(5))
    worked = max(err1, err2, err3)
    out.append(_result("worked capacity examples", worked <= 1e-12,
                       f"max abs err {worked:.2e}"))

    budget_err = 0.0
    all_valid = True
    loss_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 7))
        spec = _random_spec(rng, n)
        res = capacity.solve_capacity(spec)
        tr = float(np.trace(res.input_pair.cov).real)
        budget_err = max(budget_err, abs(tr - spec.power) / max(spec.power, 1e-12))
        all_valid &= second_order.validate_pair(
            res.input_pair.cov, res.input_pair.pcov).valid
        loss = capacity.capacity_loss(spec)
        bound = n * np.log(2 / np.sqrt(3))
        loss_ok &= 0.0 <= loss.delta_c_nats < bound
        loss_ok &= abs(loss.delta_c_nats
                       - (-0.5 * float(np.sum(np.log1p(-(loss.mus**2)))))) <= 1e-10
    out.append(_result("power budget exhausted", budget_err <= 1e-8,
                       f"max rel err {budget_err:.2e}"))
    out.append(_result("solved input pair always valid", all_valid, "100 random specs"))
    out.append(_result("capacity loss within its bound", loss_ok,
                       "0 <= loss < n log(2/sqrt(3)) on 100 random specs"))

    spec = _random_spec(rng, 2)
    caps = []
    for mult in (1.0, 1.5, 2.0, 3.0):
        widened = capacity.ChannelSpec(h=spec.h, noise=spec.noise, power=spec.power * mult)
        caps.append(capacity.solve_capacity(widened).capacity_nats)
    out.append(_result("capacity nondecreasing in power",
                       bool(np.all(np.diff(caps) >= 0)),
                       f"capacities {['%.4f' % c for c in caps]}"))

    proper_twin = capacity.ChannelSpec(
        h=spec.h, noise=second_order.SecondOrderPair.proper(spec.noise.cov),
        power=spec.power)
    bonus = (capacity.solve_capacity(spec).capacity_nats
             - capacity.solve_capacity(proper_twin).capacity_nats)
    lams = second_order.circularity_spectrum(spec.noise)
    expected_bonus = -0.5 * float(np.sum(np.log1p(-(lams**2))))
    out.append(_result("improper noise raises capacity by the closed-form bonus",
                       abs(bonus - expected_bonus) <= 1e-10,
                       f"bonus {bonus:.6f} vs {expected_bonus:.6f}"))

    rn, imn, rp, ip = capacity.scalar_powers(1.0, 0.5, 2.0)
    powers_err = max(abs(rn - 0.75), abs(imn - 0.25), abs(rp - 0.75), abs(ip - 1.25),
                     abs(rp + ip - 2.0))
    out.append(_result("scalar power split", powers_err <= 1e-12,
                       f"max abs err {powers_err:.2e}"))

    n_samp = samples
    mi = capacity.mc_mutual_information(
        scalar, scalar_res.input_pair, n_samp, seed=int(rng.integers(2**32)))
    tol_mi = _scaled(0.05, n_samp, 100_000)
    err_mi = abs(mi.value - scalar_res.capacity_nats)
    out.append(_result("Monte Carlo MI matches scalar capacity", err_mi <= tol_mi,
                       f"err {err_mi:.4f} (tol {tol_mi:.4f}, N={n_samp})"))

    bpsk = second_order.SampleSet(
        data=(rng.integers(0, 2, n_samp) * 2.0 - 1.0).astype(complex)[:, None], seed=0)
    mi_orig, mi_rot = capacity.verify_circular_optimality(
        scalar, bpsk, k=4, seed=int(rng.integers(2**32)))
    se = float(np.hypot(mi_orig.stderr, mi_rot.stderr))
    out.append(_result("circularized input cannot lose mutual information",
                       mi_rot.value >= mi_orig.value - 3 * se,
                       f"original {mi_orig.value:.4f}, circularized {mi_rot.value:.4f}"))
    return out


_SUITE_FUNCS = {
    "algebra": suite_algebra,
    "entropy": suite_entropy,
    "analog": suite_analog,
    "capacity": suite_capacity,
}


def run_suite(name: str, seed: int, samples: int = DEFAULT_SAMPLES) -> list[PropertyResult]:
    """Run one named suite (or 'all'); returns the list of property results."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    names = [s for s in ("algebra", "entropy", "analog", "capacity")] if name == "all" else [name]
    out = []
    for suite in names:
        for res in _SUITE_FUNCS[suite](seed, samples):
            out.append(PropertyResult(f"{suite}: {res.name}", res.passed, res.detail))
    return out
