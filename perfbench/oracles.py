"""Independent references for the benchmark's correctness checks.

Everything here is built from numpy alone, from the definitions, and never
calls into the `improper` package: the real 2n-dimensional covariance is
assembled from the C/P blocks directly, validity is a brute-force PSD test
of that covariance, capacity is real water-filling over the eigenvalues of
the input-referred noise (Cover & Thomas, ch. 9), and the divergence of a
Gaussian from its circular analog is a Monte Carlo average of the log
density ratio, with the analog density integrated over the phase by the
periodic trapezoid rule.
"""

from __future__ import annotations

import numpy as np

LOG_2PI_E = float(np.log(2.0 * np.pi * np.e))
LOG_PI_E = float(np.log(np.pi * np.e))


def random_unitary(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def make_pair(rng, n: int, lams, cond: float = 4.0):
    """(C, P) with circularity spectrum exactly `lams` by construction.

    C = U diag(d) U^H with eigenvalues spread over [1, cond]; the factor
    B = U diag(sqrt d) V (V unitary) gives P = B diag(lams) B^T, so
    B^-1 P B^-T = diag(lams).
    """
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    d = np.geomspace(1.0, cond, n) if n > 1 else np.ones(1)
    b = (u * np.sqrt(d)) @ v
    c = b @ b.conj().T
    p = b @ (np.asarray(lams, dtype=float)[:, None] * b.T)
    return 0.5 * (c + c.conj().T), 0.5 * (p + p.T)


def real_cov(c, p) -> np.ndarray:
    """Covariance of [Re x; Im x] from the blocks of (C, P)."""
    srr = 0.5 * (c + p).real
    sii = 0.5 * (c - p).real
    sir = 0.5 * (c + p).imag  # E[Im x Re x^T]
    s = np.block([[srr, sir.T], [sir, sii]])
    return 0.5 * (s + s.T)


def gaussian_entropy(c, p) -> float:
    """Entropy (nats) of the complex Gaussian with moments (C, P), as a real 2n-dim Gaussian."""
    s = real_cov(c, p)
    sign, logdet = np.linalg.slogdet(s)
    if sign <= 0:
        raise ValueError("real covariance is not positive definite")
    return 0.5 * (s.shape[0] * LOG_2PI_E + logdet)


def covariance_only_bound(c) -> float:
    """log det(pi e C) from the complex log-determinant of C."""
    _, logdet = np.linalg.slogdet(c)
    return c.shape[0] * LOG_PI_E + float(logdet)


def pair_is_valid(c, p) -> bool:
    """Brute force: C Hermitian and non-singular, P symmetric, real covariance PSD."""
    if np.linalg.norm(c - c.conj().T) > 1e-10 * np.linalg.norm(c):
        return False
    if np.linalg.norm(p - p.T) > 1e-10 * max(np.linalg.norm(p), 1e-300):
        return False
    eig_c = np.linalg.eigvalsh(c)
    if eig_c[0] <= 1e-12 * abs(eig_c[-1]):
        return False
    eig_s = np.linalg.eigvalsh(real_cov(c, p))
    return bool(eig_s[0] >= -1e-9 * abs(eig_s[-1]))


def water_filling(h, c, p, power: float):
    """Real water-filling capacity (nats) of y = Hx + z with improper noise (C, P).

    The noise referred to the input, H^-1 z, has real covariance with
    eigenvalues mu; filling `power` over them gives level nu and
    I = 1/2 sum log(max(nu, mu_i) / mu_i). Returns (capacity, level, active).
    """
    h_inv = np.linalg.solve(h, np.eye(h.shape[0]))
    cw = h_inv @ c @ h_inv.conj().T
    pw = h_inv @ p @ h_inv.T
    mu = np.linalg.eigvalsh(real_cov(0.5 * (cw + cw.conj().T), 0.5 * (pw + pw.T)))
    for active in range(mu.size, 0, -1):
        level = (power + mu[:active].sum()) / active
        if level >= mu[active - 1]:
            break
    cap = 0.5 * float(np.sum(np.log(np.maximum(level, mu) / mu)))
    return cap, float(level), active


def proper_design_loss(h, c, p, power: float) -> float:
    """Capacity minus the rate of the input a proper-noise design would choose.

    That design fills the complex noise covariance G = H^-1 C H^-H to the
    level L = (S + tr G)/n with a proper input (C_x = L I - G, P_x = 0);
    its rate is h(Hx + z) - h(z), both as real Gaussian entropies.
    """
    n = h.shape[0]
    h_inv = np.linalg.solve(h, np.eye(n))
    g = h_inv @ c @ h_inv.conj().T
    g = 0.5 * (g + g.conj().T)
    level = (power + np.trace(g).real) / n
    c_x = level * np.eye(n) - g
    c_y = h @ c_x @ h.conj().T + c
    rate = gaussian_entropy(0.5 * (c_y + c_y.conj().T), p) - gaussian_entropy(c, p)
    return water_filling(h, c, p, power)[0] - rate


def analog_divergence(lams, count: int = 20_000, nodes: int = 64, seed: int = 12345) -> float:
    """D(x || x_a) in nats for a Gaussian with circularity spectrum `lams`.

    The divergence is invariant under invertible complex-linear maps, so it
    is computed in canonical coordinates: independent scalar components with
    real/imaginary variances (1 + l)/2 and (1 - l)/2. The analog density
    f_a(y) = mean over theta of f(e^{-i theta} y) is evaluated with `nodes`
    equispaced phases, exact to rounding for these smooth periodic
    integrands, and D = E[log f(y) - log f_a(y)] is averaged over `count`
    draws from a fixed seed.
    """
    lams = np.asarray(lams, dtype=float)
    var_re = 0.5 * (1.0 + lams)
    var_im = 0.5 * (1.0 - lams)
    rng = np.random.default_rng(seed)
    y = (rng.standard_normal((count, lams.size)) * np.sqrt(var_re)
         + 1j * rng.standard_normal((count, lams.size)) * np.sqrt(var_im))
    log_norm = -float(np.sum(np.log(2.0 * np.pi * np.sqrt(var_re * var_im))))

    def log_f(z):
        return log_norm - 0.5 * np.sum(z.real**2 / var_re + z.imag**2 / var_im, axis=-1)

    rot = np.exp(-2j * np.pi * np.arange(nodes) / nodes)
    total = 0.0
    for start in range(0, count, 2000):
        chunk = y[start:start + 2000]
        lf = log_f(chunk)
        rotated = log_f(chunk[:, None, :] * rot[None, :, None])
        top = rotated.max(axis=1)
        log_fa = top + np.log(np.mean(np.exp(rotated - top[:, None]), axis=1))
        total += float(np.sum(lf - log_fa))
    return total / count


def gaussian_kl(c_p, p_p, c_q, p_q) -> float:
    """D(p || q) in nats between two zero-mean complex Gaussians, via real covariances."""
    sp = real_cov(c_p, p_p)
    sq = real_cov(c_q, p_q)
    _, ld_p = np.linalg.slogdet(sp)
    _, ld_q = np.linalg.slogdet(sq)
    tr = float(np.trace(np.linalg.solve(sq, sp)))
    return 0.5 * (tr - sp.shape[0] + ld_q - ld_p)


def draw_gaussian(rng, c, p, count: int) -> np.ndarray:
    """`count` complex Gaussian vectors with moments (C, P), from the real Cholesky factor."""
    s = real_cov(c, p)
    chol = np.linalg.cholesky(s)
    xr = rng.standard_normal((count, s.shape[0])) @ chol.T
    n = c.shape[0]
    return xr[:, :n] + 1j * xr[:, n:]


def moment_error(x, c, p) -> tuple[float, float]:
    """Largest entry errors of the 1/N empirical (C, P), each in units of sqrt(C_ii C_jj)."""
    d = x - x.mean(axis=0)
    n = x.shape[0]
    c_hat = d.T @ d.conj() / n
    p_hat = d.T @ d / n
    scale = np.sqrt(np.outer(np.diag(c).real, np.diag(c).real))
    return (float(np.max(np.abs(c_hat - c) / scale)),
            float(np.max(np.abs(p_hat - p) / scale)))
