"""One registry of seeded property checks, behind `improper verify` and the
acceptance tests.

A check is a private function registered under a name. It takes a random
generator and a sample count and returns one or more PropertyResults.
`_run_checks(names, seed, samples)` gives each named check its own generator,
seeded from (seed, name), so a check's numbers depend on the seed, its name
and the sample count alone, never on which other checks ran. Checks that
share an expensive estimate are one entry: the kNN entropy of one improper
Gaussian draw feeds five verdicts, and no estimate is computed twice.

The four suites (algebra, entropy, analog, capacity) are name lists over the
registry (SUITE_CHECKS); tests/test_acceptance.py holds a second list,
criterion -> names. Two Monte Carlo checks run only there, to keep the
suites fast: the circular competitor's divergence and the circularized
improper-Gaussian and rotated-uniform inputs.

The random-pair checks ("pair validity", "real covariance identities",
"Gaussian closed forms" and the noise pairs of "random admissible specs")
draw their pairs one stack per dimension (_random_pair_stack) and factor
each stack with one second_order._factor_pairs call, the same code a
single pair runs as a batch of one. _psd_oracle is stacked over the same
arrays and shares nothing with the library's factorization or embedding.

Each result carries the measured value, the tolerance it was held against,
the sample count (draws, or random instances of an exact identity), k and
the real dimension d of a kNN estimate, and the other numbers its detail
line shows; the detail line is rendered from those fields.

Statistical tolerances are calibrated at N_REF samples; when a check runs
with fewer they widen by sqrt(N_REF / N), the CLT rate, so smoke runs at
small N remain meaningful. Exact identities ignore the sample count.

The uniform Kolmogorov-Smirnov distance and the kurtosis are computed here,
on numpy (_ks_uniform_distance, _excess_kurtosis), in the arithmetic of
their scipy.stats counterparts, so no check loads scipy.stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import analog, capacity, entropy, linalg, second_order, transforms
from .errors import DegenerateConditional

DEFAULT_SAMPLES = 100_000
N_REF = 100_000
_LOG_PIE = float(np.log(np.pi * np.e))
_K = entropy.DEFAULT_K


@dataclass(frozen=True)
class PropertyResult:
    """One verdict: measured held against tolerance, detail rendered from the fields."""

    name: str
    passed: bool
    detail: str
    measured: float
    tolerance: float
    samples: int | None = None
    k: int | None = None
    d: int | None = None
    values: dict = field(default_factory=dict)


def _result(name, template, measured, tol, *, at_least=False, samples=None, k=None, d=None,
            **values) -> PropertyResult:
    """Hold measured against tol (<= tol, or >= tol when at_least) and render the detail."""
    measured, tol = float(measured), float(tol)
    values = {key: float(v) for key, v in values.items()}
    passed = measured >= tol if at_least else measured <= tol
    detail = template.format(measured=measured, tol=tol, N=samples, k=k, d=d, **values)
    return PropertyResult(name, bool(passed), detail, measured, tol, samples, k, d, values)


def _scaled(tol: float, n: int) -> float:
    return tol if n >= N_REF else tol * float(np.sqrt(N_REF / n))


def _rel_err(actual, expected) -> float:
    scale = max(np.linalg.norm(np.atleast_1d(expected)), 1e-12)
    return float(np.linalg.norm(np.atleast_1d(actual - expected)) / scale)


def _seed(rng) -> int:
    return int(rng.integers(2**32))


def _random_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_pair_stack(rng, n, lam_max, exact_max=True) -> tuple[np.ndarray, np.ndarray]:
    """(C, P): len(lam_max) random pairs of dimension n, stacked (k, n, n).

    Item i has circularity spectrum lam_max[i] * u, u uniform on [0, 1)^n.
    With exact_max, u is sorted descending and rescaled to max 1, so
    lam_max[i] is the exact maximum.
    """
    lam_max = np.asarray(lam_max, dtype=float)[:, None]
    k = lam_max.shape[0]
    a = _random_complex(rng, k, n, n)
    c = a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(n)
    u, d = linalg._eighs(c)
    b = u * np.sqrt(d)[:, None, :]  # B B^H = C
    lams = rng.random((k, n))
    if exact_max:
        lams = np.sort(lams, axis=-1)[:, ::-1]
        lams = lams / lams[:, :1] * lam_max
    else:
        lams = lam_max * lams
    q = np.linalg.qr(_random_complex(rng, k, n, n))[0]
    p = b @ (q * lams[:, None, :]) @ q.swapaxes(-1, -2) @ b.swapaxes(-1, -2)
    return c, 0.5 * (p + p.swapaxes(-1, -2))


def _random_specs(rng, n, count) -> list[capacity.ChannelSpec]:
    """count random admissible channels of dimension n: improper noise with lambda < 0.9,
    S = 2.5 n ||H^-1 C_z H^-H||. The noise pairs are factored as one stack."""
    h = np.eye(n) + 0.1 * _random_complex(rng, count, n, n)
    c, p = _random_pair_stack(rng, n, np.full(count, 0.9), exact_max=False)
    h_inv = np.linalg.inv(h)
    referred = h_inv @ c @ h_inv.conj().swapaxes(-1, -2)
    power = 2.5 * n * np.linalg.norm(referred, 2, axis=(-2, -1))
    return [capacity.ChannelSpec(h=hi, noise=noise, power=float(s))
            for hi, noise, s in zip(h, second_order._factored_pairs(c, p), power)]


def _by_dimension(rng, low, high, count):
    """(n, k) for each dimension n of count draws uniform on [low, high): k draws are n."""
    dims, counts = np.unique(rng.integers(low, high, size=count), return_counts=True)
    return zip(dims.tolist(), counts.tolist())


def _psd_oracle(c, p) -> np.ndarray:
    """Brute-force validity of each pair of two (k, n, n) stacks: Hermitian
    non-singular C, P symmetric next to the pair's scale, and a PSD real
    covariance built from the Re/Im blocks (not the library's embedding)."""
    def fro(x):
        return np.linalg.norm(x, axis=(-2, -1))

    def top(eigs):
        return np.maximum(np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1])), 1e-12)

    c_h = c.conj().swapaxes(-1, -2)
    eig_c = np.linalg.eigvalsh(0.5 * (c + c_h))
    s = 0.5 * np.block([
        [c.real + p.real, -c.imag + p.imag],
        [c.imag + p.imag, c.real - p.real],
    ])
    eig_s = np.linalg.eigvalsh(0.5 * (s + s.swapaxes(-1, -2)))
    return ((fro(c - c_h) <= 1e-10 * np.maximum(fro(c), 1e-12))
            & (eig_c[:, 0] > 1e-12 * top(eig_c))
            & (fro(p - p.swapaxes(-1, -2)) <= 1e-10 * np.maximum(np.maximum(fro(p), fro(c)), 1e-12))
            & (eig_s[:, 0] >= -1e-9 * top(eig_s)))


def _divergence_quadrature(lam: float) -> float:
    """D(x || x_a) of the scalar improper Gaussian with coefficient lam.

    Via the conditional phase entropy: integrating the angle out analytically
    leaves a radial integral in the Bessel ratios (scipy's scaled I0/I1,
    nothing shared with the library's Bessel code).
    """
    from scipy.special import i0e, i1e

    s2 = 1.0 - lam * lam
    r = np.linspace(0.0, 12.0, 40_001)
    arg = lam * r * r / s2
    radial = 2.0 * r / np.sqrt(s2) * np.exp(-(r * r) / s2 + arg) * i0e(arg)
    neg_h_cond = arg * i1e(arg) / i0e(arg) - (np.log(i0e(arg)) + arg)
    return float(np.trapezoid(radial * neg_h_cond, r))


def _ks_uniform_distance(u) -> float:
    """Kolmogorov-Smirnov distance of u from uniform on [0, 1), as scipy.stats.ks_1samp."""
    u = np.sort(u)
    n = len(u)
    return float(max(np.max(np.arange(1.0, n + 1) / n - u), np.max(u - np.arange(0.0, n) / n)))


def _excess_kurtosis(v) -> float:
    """Biased Fisher excess kurtosis m4 / m2^2 - 3, as scipy.stats.kurtosis(v)."""
    c = v - np.mean(v)
    c2 = c * c
    return float(np.mean(c2 * c2) / np.mean(c2) ** 2.0 - 3)


_CHECKS = {}


def _check(name):
    if name in _CHECKS:
        raise ValueError(f"check {name!r} is already registered")

    def register(fn):
        _CHECKS[name] = fn
        return fn

    return register


def _run_checks(names, seed: int, samples: int) -> list[PropertyResult]:
    """Run the named checks, each on a generator seeded from (seed, name)."""
    out = []
    for name in names:
        out += _CHECKS[name](np.random.default_rng([seed, *name.encode()]), samples)
    return out


_PROPER = second_order.SecondOrderPair.proper(np.eye(1))
_IMPROPER = second_order.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.8]]))
_ERR = "max rel err {measured:.2e} (tol {tol:.0e})"


# ---------------------------------------------------------------------------
# algebra

@_check("embedding identities")
def _embedding_identities(rng, samples):
    ov, un = linalg.overline_map, linalg.underline_map
    worst = dict.fromkeys(("prod", "mixed", "transpose", "sum_inv", "ortho", "det"), 0.0)
    for _ in range(100):
        n, m, k = (int(v) for v in rng.integers(1, 9, size=3))
        a, a2 = _random_complex(rng, n, m), _random_complex(rng, n, m)
        b = _random_complex(rng, m, k)
        sq = _random_complex(rng, n, n)
        shifted = sq + 2 * np.eye(n)
        ou = ov(np.linalg.qr(_random_complex(rng, n, n))[0])
        det = abs(np.linalg.det(sq)) ** 2
        errs = {
            "prod": max(_rel_err(ov(a @ b), ov(a) @ ov(b)), _rel_err(un(a @ b), ov(a) @ un(b))),
            "mixed": _rel_err(un(a @ b.conj()), un(a) @ ov(b)),
            "transpose": _rel_err(ov(a.conj().T), ov(a).T),
            "sum_inv": max(_rel_err(ov(a + a2), ov(a) + ov(a2)),
                           _rel_err(ov(np.linalg.inv(shifted)), np.linalg.inv(ov(shifted)))),
            "ortho": float(np.max(np.abs(ou.T @ ou - np.eye(2 * n)))),
            "det": abs(np.linalg.det(ov(sq)) - det) / max(det, 1e-12),
        }
        worst = {key: max(worst[key], errs[key]) for key in worst}
    return [
        _result("embedding multiplicativity", _ERR, worst["prod"], 1e-10, samples=100),
        _result("embedding mixed product with conjugate", _ERR, worst["mixed"], 1e-10,
                samples=100),
        _result("embedding transpose identity", _ERR, worst["transpose"], 1e-12, samples=100),
        _result("embedding of sums and inverses", _ERR, worst["sum_inv"], 1e-8, samples=100),
        _result("unitary maps to orthogonal", "max abs dev {measured:.2e} (tol {tol:.0e})",
                worst["ortho"], 1e-10, samples=100),
        _result("det(overline) = |det|^2", _ERR, worst["det"], 1e-8, samples=100),
    ]


@_check("takagi factorization")
def _takagi_factorization(rng, samples):
    rec = sig = eig = 0.0
    for i in range(100):
        n = int(rng.integers(1, 9))
        if i % 3 == 0:  # repeated singular values by construction
            q = np.linalg.qr(_random_complex(rng, n, n))[0]
            vals = np.sort(rng.random(max(1, (n + 1) // 2)))[::-1]
            a = (q * np.repeat(vals, 2)[:n]) @ q.T
        elif i % 3 == 1:  # one pair at relative gap 10^u, u in [-9, -7]; zeros past rank
            n = max(n, 2)
            q = np.linalg.qr(_random_complex(rng, n, n))[0]
            vals = np.sort(rng.random(n))[::-1]
            j = int(rng.integers(0, n - 1))
            vals[j + 1] = vals[j] * (1.0 - 10.0 ** rng.uniform(-9.0, -7.0))
            vals[int(rng.integers(j + 2, n + 1)):] = 0.0
            a = (q * vals) @ q.T
        else:
            g = _random_complex(rng, n, n)
            a = 0.5 * (g + g.T)
        fac = linalg.takagi(a)
        sv = np.linalg.svd(a, compute_uv=False)
        eigs = np.linalg.eigvalsh(linalg.underline_map(a))[::-1]
        rec = max(rec, _rel_err(fac.reconstruct(), a),
                  float(np.max(np.abs(fac.q.conj().T @ fac.q - np.eye(n)))))
        sig = max(sig, float(np.max(np.abs(fac.sigma - sv)) / max(sv[0], 1e-12)))
        eig = max(eig, float(np.max(np.abs(eigs - np.concatenate([sv, -sv[::-1]])))))
    return [
        _result("takagi reconstruction",
                "max rel err and |Q^H Q - I| {measured:.2e} (tol {tol:.0e}, incl. repeated, "
                "nearly repeated and rank-deficient spectra)", rec, 1e-12, samples=100),
        _result("takagi sigma = singular values", _ERR, sig, 1e-10, samples=100),
        _result("underline(P) eigenvalues are +/- singular values",
                "max abs err {measured:.2e} (tol {tol:.0e}, same matrices)", eig, 1e-8,
                samples=100),
    ]


@_check("pair validity")
def _pair_validity(rng, samples):
    disagreements = 0
    for n in range(1, 6):  # 100 pairs of each dimension, factored as one stack
        edge = _random_pair_stack(rng, n, [1.0 - 1e-6, 1.0, 1.0 + 1e-6])
        spread = _random_pair_stack(rng, n, 1.4 * rng.random(70))
        a = _random_complex(rng, 10, n, n)
        skew_p = (a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(n),
                  _random_complex(rng, 10, n, n))  # generically not symmetric
        skew_c = (_random_complex(rng, 5, n, n),  # generically not Hermitian
                  np.zeros((5, n, n), dtype=complex))
        # Hermitian C with eigenvalues in [0.5, 1.5) but the last: 6 at 1e-14 to 1e-13
        # (singular next to the others), 6 at -1e-3 to -1 (indefinite); P = 0 for half
        eigs = rng.uniform(0.5, 1.5, (12, n))
        eigs[:, -1] = np.concatenate([10.0 ** rng.uniform(-14, -13, 6),
                                      -(10.0 ** rng.uniform(-3, 0, 6))])
        q = np.linalg.qr(_random_complex(rng, 12, n, n))[0]
        g = _random_complex(rng, 12, n, n)
        low = ((q * eigs[:, None, :]) @ q.conj().swapaxes(-1, -2),
               np.where(np.arange(12)[:, None, None] % 2 == 0, 0.0,
                        0.1 * (g + g.swapaxes(-1, -2))))
        c, p = (np.concatenate(parts) for parts in zip(edge, spread, skew_p, skew_c, low))
        valid = np.array([f.validity.valid for f in second_order._factor_pairs(c, p)])
        disagreements += int(np.count_nonzero(valid != _psd_oracle(c, p)))
    c, p = np.eye(2), np.array([[0.0, 1e-15], [0.0, 0.0]])  # P at round-off next to C
    disagreements += second_order.validate_pair(c, p).valid != _psd_oracle(c[None], p[None])[0]
    return [_result("pair validity matches PSD oracle",
                    "{measured:.0f} disagreements over {N} random pairs incl. 15 at lambda in "
                    "{{1-1e-6, 1, 1+1e-6}}, 25 with the smallest eigenvalue of C at 1e-14 to "
                    "1e-13 of the others and 25 with it negative, and P = 1e-15 E12 next to "
                    "C = I", disagreements, 0, samples=500)]


@_check("real covariance identities")
def _real_covariance_identities(rng, samples):
    det_err = rt_err = spec_inv = 0.0
    for n, k in _by_dimension(rng, 1, 6, 50):
        c, p = _random_pair_stack(rng, n, 0.9 * rng.random(k))
        pairs = second_order._factored_pairs(c, p)
        lams = np.array([second_order.circularity_spectrum(pair) for pair in pairs])
        s = np.array([second_order.real_covariance(pair) for pair in pairs])
        expected = 4.0 ** (-n) * np.linalg.det(c).real ** 2 * np.prod(1 - lams**2, axis=-1)
        det_err = max(det_err, float(np.max(np.abs(np.linalg.det(s) - expected)
                                            / np.maximum(np.abs(expected), 1e-12))))
        for si, ci, pi in zip(s, c, p):
            back = second_order.pair_from_real_covariance(si)
            # P enters S only through sums with C, so both round-trip errors are
            # measured against the scale of the embedded pair, not |P| alone.
            pair_scale = np.linalg.norm(ci) + np.linalg.norm(pi)
            rt_err = max(rt_err, float(np.linalg.norm(back.cov - ci) / pair_scale),
                         float(np.linalg.norm(back.pcov - pi) / pair_scale))
        a = _random_complex(rng, k, n, n) + 2 * np.eye(n)
        moved = second_order._factored_pairs(a @ c @ a.conj().swapaxes(-1, -2),
                                             a @ p @ a.swapaxes(-1, -2))
        moved_lams = np.array([second_order.circularity_spectrum(pair) for pair in moved])
        spec_inv = max(spec_inv, float(np.max(np.abs(moved_lams - lams))))
    return [
        _result("det(real covariance) identity", _ERR, det_err, 1e-6, samples=50),
        _result("real covariance round-trip",
                "max err {measured:.2e} relative to |C|+|P| (tol {tol:.0e})", rt_err, 1e-12,
                samples=50),
        _result("spectrum congruence invariance", "max abs err {measured:.2e} (tol {tol:.0e})",
                spec_inv, 1e-8, samples=50),
    ]


@_check("transform round trips")
def _transform_round_trips(rng, samples):
    x = _random_complex(rng, 2000, 3)
    p = transforms.real_to_polar(x)
    back = transforms.sheared_to_polar(transforms.polar_to_sheared(p))
    dphi = np.abs(back.phi - p.phi)
    err = max(np.max(np.abs(transforms.polar_to_real(p) - x)),
              np.max(np.abs(transforms.polar_to_real(back) - x)),
              np.max(np.abs(back.r - p.r)), np.max(np.minimum(dphi, 1.0 - dphi)))
    return [_result("transform round-trips", "max abs err {measured:.2e} (tol {tol:.0e})",
                    err, 1e-12, samples=2000)]


@_check("polar density integral")
def _polar_density_integral(rng, samples):
    def gauss(xr):  # scalar circular Gaussian
        return np.exp(-np.sum(xr**2, axis=-1)) / np.pi

    r = np.linspace(0.0, 8.0, 2001)
    phi = np.linspace(0.0, 1.0, 201)[:-1]  # periodic: drop duplicate endpoint
    means = np.empty_like(r)
    for lo in range(0, r.size, 128):  # row blocks: the whole grid is a 25 MB transient
        rr, pp = np.meshgrid(r[lo:lo + 128], phi, indexing="ij")
        means[lo:lo + 128] = transforms.polar_density(
            gauss, transforms.PolarPoint(r=rr[..., None], phi=pp[..., None])).mean(axis=1)
    integral = float(np.trapezoid(means, r))
    return [_result("polar density integrates to 1", "integral {integral:.6f} (tol {tol:.0e})",
                    abs(integral - 1.0), 1e-4, integral=integral)]


# ---------------------------------------------------------------------------
# entropy

@_check("Gaussian closed forms")
def _gaussian_closed_forms(rng, samples):
    route = 0.0
    for n, k in _by_dimension(rng, 1, 7, 200):
        for pair in second_order._factored_pairs(
                *_random_pair_stack(rng, n, 0.95 * rng.random(k))):
            h_c = entropy.complex_gaussian_entropy(pair).value
            h_r = entropy.real_gaussian_entropy(second_order.real_covariance(pair)).value
            route = max(route, abs(h_c - h_r))
    exact = max(abs(entropy.complex_gaussian_entropy(_PROPER).value - _LOG_PIE),
                abs(entropy.complex_gaussian_entropy(_IMPROPER).value
                    - (_LOG_PIE + 0.5 * np.log(1.0 - 0.64))))
    return [
        _result("complex vs real Gaussian closed forms",
                "max abs diff {measured:.2e} (tol {tol:.0e})", route, 1e-9, samples=200),
        _result("scalar closed forms are exact",
                "max abs err {measured:.1e} at lambda 0 and 0.8 (tol {tol:.0e})", exact, 5e-15),
    ]


@_check("circular Gaussian kNN entropy")
def _circular_knn_entropy(rng, samples):
    h = entropy.knn_entropy(second_order.sample_gaussian(_PROPER, samples, _seed(rng)))
    return [_result("kNN entropy vs circular Gaussian",
                    "err {measured:.4f} (tol {tol:.4f} at N={N})",
                    abs(h.value - _LOG_PIE), _scaled(0.02, samples), samples=samples, k=_K, d=2)]


@_check("improper Gaussian kNN entropy")
def _improper_knn_entropy(rng, samples):
    x = second_order.sample_gaussian(_IMPROPER, samples, _seed(rng))
    h = entropy.knn_entropy(x)
    h_a = entropy.knn_entropy(analog.circularize(x, _seed(rng)))
    closed = entropy.complex_gaussian_entropy(_IMPROPER).value
    emp = second_order.empirical_pair(x)
    nm = entropy.neeser_massey_bound(emp.cov).value
    me = entropy.complex_gaussian_entropy(emp).value
    slack = me + 3 * h.stderr - h.value
    three_se = 3 * float(np.hypot(h.stderr, h_a.stderr))
    # h(analog) must clear h(x) below and the covariance-only bound log(pi e)
    # above by 0.02 nats at N_REF; below N_REF the margin gives way by the
    # widening of the 0.02 noise allowance.
    need = 0.02 - (_scaled(0.02, samples) - 0.02)
    est = dict(samples=samples, k=_K, d=2)
    return [
        _result("kNN entropy vs improper Gaussian closed form",
                "err {measured:.4f} (tol {tol:.4f})", abs(h.value - closed),
                _scaled(0.03, samples), **est),
        _result("covariance-only entropy bound holds", "slack {measured:.4f} nats",
                nm + 3 * h.stderr - h.value, 0.0, at_least=True, **est),
        _result("pair entropy bound holds and is tighter",
                "slack {slack:.4f}, bound gap {gap:.4f}", min(slack, nm - me), 0.0,
                at_least=True, slack=slack, gap=nm - me, **est),
        _result("circularizing cannot lower entropy",
                "gap {measured:.4f} nats (improper Gaussian input, 3se {three_se:.4f})",
                h_a.value - h.value, -three_se, at_least=True, three_se=three_se, **est),
        _result("analog entropy sits between the bounds",
                "{h:.4f} < {h_a:.4f} < {hi:.4f}, margin {measured:.4f} (need {tol:.4f})",
                min(h_a.value - h.value, _LOG_PIE - h_a.value), need, at_least=True,
                h=h.value, h_a=h_a.value, hi=_LOG_PIE, **est),
    ]


@_check("mixture entropy gap")
def _mixture_entropy_gap(rng, samples):
    half = samples // 2
    other = second_order.SecondOrderPair(cov=0.5 * np.eye(1), pcov=np.array([[-0.3]]))
    mix = second_order.SampleSet(data=np.concatenate([
        second_order.sample_gaussian(_IMPROPER, half, _seed(rng)).data,
        second_order.sample_gaussian(other, samples - half, _seed(rng)).data]), seed=0)
    h = entropy.knn_entropy(mix)
    h_a = entropy.knn_entropy(analog.circularize(mix, _seed(rng)))
    three_se = 3 * float(np.hypot(h.stderr, h_a.stderr))
    return [_result("circularizing cannot lower entropy (mixture)",
                    "gap {measured:.4f} nats (3se {three_se:.4f})", h_a.value - h.value,
                    -three_se, at_least=True, three_se=three_se, samples=samples, k=_K, d=2)]


@_check("kNN divergence")
def _knn_divergence(rng, samples):
    a = second_order.sample_gaussian(_PROPER, samples, _seed(rng))
    b = second_order.sample_gaussian(_PROPER, samples, _seed(rng))
    wide = second_order.sample_gaussian(
        second_order.SecondOrderPair.proper(2 * np.eye(1)), samples, _seed(rng))
    d_wide = entropy.knn_kl_divergence(a, wide)
    true_d = np.log(2) - 0.5
    est = dict(samples=samples, k=_K, d=2)
    return [
        _result("kNN divergence of identical distributions",
                "estimate {measured:.4f} (tol {tol:.4f})", entropy.knn_kl_divergence(a, b),
                _scaled(0.03, samples), **est),
        _result("kNN divergence vs Gaussian closed form",
                "estimate {estimate:.4f}, true {true:.4f} (tol {tol:.4f})", abs(d_wide - true_d),
                _scaled(0.05, samples), estimate=d_wide, true=true_d, **est),
    ]


# ---------------------------------------------------------------------------
# analog

@_check("circular analog of improper Gaussian")
def _circular_analog(rng, samples):
    x = second_order.sample_gaussian(_IMPROPER, samples, _seed(rng))
    rot = analog.circularize(x, _seed(rng))
    emp = second_order.empirical_pair(rot)
    c_shift = float(np.max(np.abs(emp.cov - second_order.empirical_pair(x).cov)))
    sheared = transforms.polar_to_sheared(transforms.real_to_polar(rot.data))
    theta_col = sheared.phi[:, -1]
    corr = abs(float(np.corrcoef(theta_col, sheared.r[:, 0])[0, 1]))
    five_se = 5 * np.sqrt(24.0 / samples)
    return [
        _result("circularize erases complementary covariance",
                "|P| {measured:.4f} (tol {tol:.4f})", np.max(np.abs(emp.pcov)),
                5 / np.sqrt(samples), samples=samples),
        _result("circularize preserves covariance",
                "|C shift| {measured:.2e} (tol {tol:.1e}; phases cancel in x x^H, "
                "only the O(1/N) centering terms differ)", c_shift, 50.0 / samples,
                samples=samples),
        _result("common phase uniform on [0,1)", "KS distance {measured:.4f} (tol {tol:.4f})",
                _ks_uniform_distance(theta_col), _scaled(0.01, samples),
                samples=samples),
        _result("common phase uncorrelated with radius", "|corr| {measured:.4f} (tol {tol:.4f})",
                corr, _scaled(0.02, samples), samples=samples),
        _result("analog of improper Gaussian is non-Gaussian",
                "|excess kurtosis| {measured:.3f} vs 5se = {tol:.3f}",
                abs(_excess_kurtosis(rot.data.real[:, 0])), five_se, at_least=True,
                samples=samples),
    ]


@_check("circularized 3-PSK has no odd moments")
def _circularized_psk(rng, samples):
    # 3-PSK is not centrally symmetric: only a phase uniform on the whole circle
    # erases its third moment (half a circle leaves |E y^3| = 2 / (3 pi))
    psk = np.exp(2j * np.pi / 3 * rng.integers(0, 3, samples))[:, None]
    rot = analog.circularize(second_order.SampleSet(data=psk), _seed(rng))
    return [_result("circularized 3-PSK has no odd moments",
                    "|E y^3| {measured:.4f} (tol {tol:.4f})", abs(np.mean(rot.data[:, 0] ** 3)),
                    5 / np.sqrt(samples), samples=samples)]


@_check("Bessel I0")
def _bessel_i0(rng, samples):
    theta = np.linspace(0.0, 1.0, 20001)
    worst = 0.0
    for val in (0.5, 5.0, 50.0):
        quad = np.trapezoid(np.exp(val * np.cos(2 * np.pi * theta)), theta)
        worst = max(worst, abs(analog.bessel_i0(val) - quad) / quad)
    return [_result("bessel I0 matches defining integral", _ERR, worst, 1e-10)]


@_check("analog Gaussian density")
def _analog_density(rng, samples):
    model = analog.analog_gaussian_model(_IMPROPER)
    pts = _random_complex(rng, 50, 1)
    dens0 = analog.analog_gaussian_density(analog.analog_gaussian_model(_PROPER), pts)
    closed0 = np.exp(-np.abs(pts[:, 0]) ** 2) / np.pi
    radius = np.abs(rng.standard_normal(40)) + 0.05
    grid = radius[:, None] * np.exp(2j * np.pi * rng.random(40))[:, None]
    ref = analog.analog_gaussian_density(model, radius[:, None].astype(complex))
    rot_dens = analog.analog_gaussian_density(model, grid)
    r = np.linspace(0, 12, 4001)
    dens_r = analog.analog_gaussian_density(model, r[:, None].astype(complex))
    integral = float(np.trapezoid(2 * np.pi * r * dens_r, r))
    return [
        _result("analog density reduces to proper Gaussian at lambda=0", _ERR,
                np.max(np.abs(dens0 - closed0) / closed0), 1e-12, samples=50),
        _result("analog density is phase-invariant", "max rel dev {measured:.2e} (tol {tol:.0e})",
                np.max(np.abs(rot_dens - ref) / ref), 1e-12, samples=40),
        _result("analog density integrates to 1", "integral {integral:.7f} (tol {tol:.0e})",
                abs(integral - 1.0), 1e-5, integral=integral),
    ]


@_check("circular Gaussian divergence")
def _circular_divergence(rng, samples):
    circ = second_order.sample_gaussian(_PROPER, samples, _seed(rng))
    return [_result("divergence vanishes for circular input",
                    "estimate {measured:.4f} (tol {tol:.4f})", analog.divergence_to_analog(circ),
                    _scaled(0.03, samples), samples=samples, k=_K, d=2)]


@_check("degenerate radius")
def _degenerate_radius(rng, samples):
    unit_ring = second_order.SampleSet(
        data=np.exp(2j * np.pi * rng.random(2000))[:, None], seed=0)
    try:
        analog.divergence_to_analog(unit_ring)
        missed, text = 1, "no exception raised"
    except DegenerateConditional:
        missed, text = 0, "constant-radius input raises DegenerateConditional"
    return [_result("degenerate radius detected", text, missed, 0, samples=2000, k=_K, d=2)]


@_check("improper Gaussian divergence")
def _improper_divergence(rng, samples):
    x = second_order.sample_gaussian(_IMPROPER, samples, _seed(rng))
    div = analog.divergence_to_analog(x)
    gap = analog.analog_entropy_gap(x, seed=_seed(rng))
    quad = _divergence_quadrature(0.8)
    tol = _scaled(0.05, samples)
    est = dict(samples=samples, k=_K, d=2, divergence=div)
    return [
        _result("divergence agrees with entropy gap",
                "divergence {divergence:.4f}, gap {gap:.4f} (tol {tol:.4f})", abs(div - gap),
                tol, gap=gap, **est),
        _result("divergence matches Bessel-ratio quadrature",
                "divergence {divergence:.4f}, quadrature {quadrature:.4f} (tol {tol:.4f})",
                abs(div - quad), tol, quadrature=quad, **est),
    ]


@_check("circular competitor divergence")
def _circular_competitor(rng, samples):
    x = second_order.sample_gaussian(_IMPROPER, samples, _seed(rng))
    competitor = second_order.sample_gaussian(_PROPER, samples, _seed(rng))
    kl = entropy.knn_kl_divergence(x, competitor)
    quad = _divergence_quadrature(0.8)
    return [_result("analog is the closest circular law",
                    "KL to CN(0, 1) {kl:.4f} vs D(x||x_a) {quadrature:.4f}, "
                    "excess {measured:.4f} (tol {tol:.4f})",
                    kl - quad, -_scaled(0.05, samples), at_least=True, samples=samples, k=_K,
                    d=2, kl=kl, quadrature=quad)]


# ---------------------------------------------------------------------------
# capacity

_SCALAR = capacity.ChannelSpec(h=np.eye(1), noise=_PROPER, power=2.0)


@_check("worked capacity examples")
def _worked_capacity(rng, samples):
    # fresh specs: a solve cached on a module-level spec would outlive a changed solver
    improper_noise = second_order.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.5]]))
    worked = ((np.eye(1), _PROPER, 2.0, np.log(3)),
              (np.eye(1), improper_noise, 2.0, np.log(3) - 0.5 * np.log(0.75)),
              (np.eye(2), second_order.SecondOrderPair.proper(np.eye(2)), 8.0, 2 * np.log(5)))
    worst = max(abs(capacity.solve_capacity(capacity.ChannelSpec(h=h, noise=z, power=s))
                    .capacity_nats - exact) for h, z, s, exact in worked)
    return [_result("worked capacity examples", "max abs err {measured:.2e} (tol {tol:.0e})",
                    worst, 1e-12)]


@_check("random admissible specs")
def _random_admissible_specs(rng, samples):
    budget_err = formula_err = achieved_err = gap_err = 0.0
    invalid = outside = 0
    specs = [(n, spec) for n, k in _by_dimension(rng, 1, 7, 100)
             for spec in _random_specs(rng, n, k)]
    for n, spec in specs:
        res = capacity.solve_capacity(spec)
        budget_err = max(budget_err,
                         abs(float(np.trace(res.input_pair.cov).real) - spec.power) / spec.power)
        invalid += not second_order.validate_pair(res.input_pair.cov, res.input_pair.pcov).valid
        loss = capacity.capacity_loss(spec).delta_c_nats
        outside += not 0.0 <= loss < n * np.log(2 / np.sqrt(3))
        # mu recomputed from H^-1, C_z and P_z, not read from the result
        h_inv = np.linalg.inv(spec.h)
        t = float(np.trace(h_inv @ spec.noise.cov @ h_inv.conj().T).real)
        mus = np.linalg.svd((n / (spec.power + t)) * (h_inv @ spec.noise.pcov @ h_inv.T),
                            compute_uv=False)
        formula_err = max(formula_err, abs(loss + 0.5 * float(np.sum(np.log1p(-(mus**2))))))
        mi = capacity.gaussian_mutual_information(spec, res.input_pair).value
        achieved_err = max(achieved_err, _rel_err(mi, res.capacity_nats))
        proper_design = second_order.SecondOrderPair.proper(res.input_pair.cov)
        gap = mi - capacity.gaussian_mutual_information(spec, proper_design).value
        gap_err = max(gap_err, abs(gap - loss))
    return [
        _result("power budget exhausted", _ERR, budget_err, 1e-10, samples=100),
        _result("solved input pair always valid", "{measured:.0f} invalid of {N} random specs",
                invalid, 0, samples=100),
        _result("capacity loss within its bound",
                "{measured:.0f} of {N} random specs outside 0 <= loss < n log(2/sqrt(3))",
                outside, 0, samples=100),
        _result("capacity loss matches its formula", "max abs err {measured:.2e} (tol {tol:.0e})",
                formula_err, 1e-10, samples=100),
        _result("solved input achieves capacity",
                "max rel err of exact MI {measured:.2e} (tol {tol:.0e})", achieved_err, 1e-10,
                samples=100),
        _result("exact MI gap equals capacity loss",
                "max abs err of MI(optimal) - MI(P_x = 0) {measured:.2e} (tol {tol:.0e})",
                gap_err, 1e-10, samples=100),
    ]


@_check("capacity in power and noise")
def _capacity_monotone(rng, samples):
    spec, = _random_specs(rng, 2, 1)
    caps = [capacity.solve_capacity(capacity.ChannelSpec(
        h=spec.h, noise=spec.noise, power=spec.power * mult)).capacity_nats
        for mult in (1.0, 1.5, 2.0, 3.0)]
    proper_twin = capacity.ChannelSpec(
        h=spec.h, noise=second_order.SecondOrderPair.proper(spec.noise.cov), power=spec.power)
    bonus = caps[0] - capacity.solve_capacity(proper_twin).capacity_nats
    lams = second_order.circularity_spectrum(spec.noise)
    expected = -0.5 * float(np.sum(np.log1p(-(lams**2))))
    return [
        _result("capacity nondecreasing in power",
                "capacities {c1:.4f}, {c2:.4f}, {c3:.4f}, {c4:.4f} at S x1, x1.5, x2, x3",
                min(np.diff(caps)), 0.0, at_least=True,
                **{f"c{i + 1}": c for i, c in enumerate(caps)}),
        _result("improper noise raises capacity by the closed-form bonus",
                "bonus {bonus:.6f} vs {expected:.6f} (tol {tol:.0e})", abs(bonus - expected),
                1e-10, bonus=bonus, expected=expected),
    ]


@_check("high-SNR threshold")
def _high_snr_threshold(rng, samples):
    # thr = 2n ||H^-1 C_z H^-H||_2 from an SVD here, not from the solver's eigenvalues
    misjudged = probes = 0
    for n, k in _by_dimension(rng, 1, 7, 6):
        for spec in _random_specs(rng, n, k):
            h_inv = np.linalg.inv(spec.h)
            referred = h_inv @ spec.noise.cov @ h_inv.conj().T
            thr = 2 * n * float(np.linalg.svd(referred, compute_uv=False)[0])
            for factor, below in ((1 - 1e-6, True), (1 + 1e-6, False)):
                probe = capacity.ChannelSpec(h=spec.h, noise=spec.noise, power=thr * factor)
                flagged = capacity.HIGH_SNR in [v.name for v in capacity.check_assumptions(probe)]
                misjudged += flagged != below
                probes += 1
    return [_result("HIGH_SNR flagged exactly below the threshold",
                    "{measured:.0f} of {N} budgets at 2n||H^-1 C_z H^-H|| (1 -/+ 1e-6) misjudged",
                    misjudged, 0, samples=probes)]


@_check("scalar power split")
def _scalar_power_split(rng, samples):
    # H = 1, C_z = 1, P_z = 0.5, S = 2: the diagonals of the real covariances
    # are ((C_z + P_z)/2, (C_z - P_z)/2) for the noise and ((S - P_z)/2,
    # (S + P_z)/2) for the optimal input, both halves filled to (S + C_z)/2
    spec = capacity.ChannelSpec(np.eye(1), second_order.SecondOrderPair([[1.0]], [[0.5]]), 2.0)
    rn, imn = np.diag(second_order.real_covariance(spec.noise))
    rp, ip = np.diag(second_order.real_covariance(capacity.solve_capacity(spec).input_pair))
    err = max(abs(rn - 0.75), abs(imn - 0.25), abs(rp - 0.75), abs(ip - 1.25),
              abs(rp + ip - 2.0))
    return [_result("scalar power split", "max abs err {measured:.2e} (tol {tol:.0e})",
                    err, 1e-12)]


def _circular_optimality(name, data, rng, samples):
    """I(x; y) = h(y) - h(z) through _SCALAR's proper-noise channel y = x + z,
    before and after circularizing x: kNN h(y), closed-form h(z).

    Circularizing cannot lower the MI when the noise is circular. Both
    estimates see the same noise draws, so their difference has reduced
    variance.
    """
    seed = _seed(rng)
    seed_z, seed_psi = second_order._spawn_seeds(seed, 2)
    z = second_order.sample_gaussian(_SCALAR.noise, len(data), seed_z).data
    rotated = analog.circularize(second_order.SampleSet(data=data, seed=0), seed_psi).data
    h_z = entropy.complex_gaussian_entropy(_SCALAR.noise).value
    h_orig, h_rot = (entropy.knn_entropy(second_order.SampleSet(data=x + z, seed=seed), _K)
                     for x in (data, rotated))
    three_se = 3 * float(np.hypot(h_orig.stderr, h_rot.stderr))
    orig, rot = h_orig.value - h_z, h_rot.value - h_z
    return _result(name, "original {orig:.4f}, circularized {rot:.4f} (3se {three_se:.4f})",
                   rot - orig, -three_se, at_least=True, samples=samples,
                   k=_K, d=2, orig=orig, rot=rot, three_se=three_se)


@_check("circularized BPSK input")
def _circularized_bpsk(rng, samples):
    bpsk = (rng.integers(0, 2, samples) * 2.0 - 1.0).astype(complex)[:, None]
    return [_circular_optimality("circularized input cannot lose mutual information",
                                 bpsk, rng, samples)]


@_check("circularized improper inputs")
def _circularized_improper(rng, samples):
    gauss = second_order.SecondOrderPair(cov=np.eye(1), pcov=np.array([[0.9]]))
    x = second_order.sample_gaussian(gauss, samples, _seed(rng)).data
    u = 2.0 * rng.random((samples, 2)) - 1.0
    uniform = ((u[:, 0] + 1j * u[:, 1]) * np.exp(2j * np.pi * 0.15))[:, None]
    return [
        _circular_optimality("circularized improper Gaussian cannot lose mutual information",
                             x, rng, samples),
        _circular_optimality("circularized rotated uniform cannot lose mutual information",
                             uniform, rng, samples),
    ]


# ---------------------------------------------------------------------------
# suites

SUITE_CHECKS = {
    "algebra": ("embedding identities", "takagi factorization", "pair validity",
                "real covariance identities", "transform round trips", "polar density integral"),
    "entropy": ("Gaussian closed forms", "circular Gaussian kNN entropy",
                "improper Gaussian kNN entropy", "mixture entropy gap", "kNN divergence"),
    "analog": ("circular analog of improper Gaussian", "Bessel I0", "analog Gaussian density",
               "circular Gaussian divergence", "degenerate radius",
               "improper Gaussian divergence", "circularized 3-PSK has no odd moments"),
    "capacity": ("worked capacity examples", "random admissible specs",
                 "capacity in power and noise", "high-SNR threshold", "scalar power split",
                 "circularized BPSK input"),
}
SUITES = (*SUITE_CHECKS, "all")


def suite_algebra(seed: int, samples: int) -> list[PropertyResult]:
    return _run_checks(SUITE_CHECKS["algebra"], seed, samples)


def suite_entropy(seed: int, samples: int) -> list[PropertyResult]:
    return _run_checks(SUITE_CHECKS["entropy"], seed, samples)


def suite_analog(seed: int, samples: int) -> list[PropertyResult]:
    return _run_checks(SUITE_CHECKS["analog"], seed, samples)


def suite_capacity(seed: int, samples: int) -> list[PropertyResult]:
    return _run_checks(SUITE_CHECKS["capacity"], seed, samples)


_SUITE_FUNCS = {
    "algebra": suite_algebra,
    "entropy": suite_entropy,
    "analog": suite_analog,
    "capacity": suite_capacity,
}


def run_suite(name: str, seed: int, samples: int = DEFAULT_SAMPLES) -> list[PropertyResult]:
    """Run one named suite (or 'all'); returns the list of property results.

    Raises ValueError for an unknown suite, and DomainError unless seed is an
    integer >= 0 and samples an integer >= 1.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    seed = linalg._int_at_least(seed, "seed", 0)
    samples = linalg._int_at_least(samples, "samples")
    names = list(_SUITE_FUNCS) if name == "all" else [name]
    return [replace(res, name=f"{suite}: {res.name}")
            for suite in names for res in _SUITE_FUNCS[suite](seed, samples)]
