"""Differential entropies: closed forms, bounds, and kNN estimators.

Closed forms
------------
* real_gaussian_entropy(S)      = 0.5 log det(2 pi e S)
* neeser_massey_bound(C)        = log det(pi e C), the covariance-only upper
  bound, attained by the proper Gaussian with covariance C
* complex_gaussian_entropy(pair) = log det(pi e C) + 0.5 sum log(1 - lambda_i^2),
  the entropy of the (possibly improper) Gaussian with moments (C, P); it is
  also the maximum entropy bound: no distribution with second-order pair
  (C, P) has larger entropy

Given a pair, these read its cached factorization (second_order.PairFactors):
the eigenvalues of C give log det(pi e C), the validity verdict gates the
entropy, and the circularity coefficients give the correction, so a pair is
factored once however many of them are asked for. neeser_massey_bound also
takes a bare matrix C, which it factors once per call.

All values are in nats. The complex closed form always agrees with
real_gaussian_entropy(real_covariance(pair)): a complex Gaussian is the
Gaussian of its real representation.

Estimators
----------
knn_entropy implements the Kozachenko-Leonenko k-nearest-neighbor estimator
on the 2n-dimensional real representation (Euclidean metric, default k = 4),
with a delete-group jackknife standard error. knn_kl_divergence is the
two-sample nearest-neighbor divergence estimator (Wang-Kulkarni-Verdu),
clamped at zero. Estimator accuracy is calibrated for dimensions 2n <= 10
at sample sizes around 1e5; tolerances in the test-suite are frozen there.

The kd-tree query dominates their cost. Each query asks for the k-th
neighbor distance alone and visits the points along a Z-order (Morton)
curve through their bounding box, so consecutive queries walk the same
tree nodes while they are still in cache; the distances are scattered
back to row order. Every point is answered on its own, so the visiting
order changes the speed and not a bit of the result.

A k-th neighbor distance of 0 (k or more other points at the very same
place) has no logarithm: the estimators raise TiedSamples, which counts
the tied points, instead of returning a meaningless value.

Only the estimators need scipy (cKDTree, digamma, gammaln), and they load
it on first use: the closed forms, and every module that imports them, run
on numpy alone. The module attribute ``cKDTree`` still resolves to
scipy.spatial.cKDTree (loaded on first access), and the estimators build
their trees with whatever that attribute holds when they are called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, second_order
from .errors import DimensionMismatch, NotPositiveDefinite, TiedSamples, TooFewSamples

CLOSED_FORM = "CLOSED_FORM"
KNN_ESTIMATE = "KNN_ESTIMATE"

DEFAULT_K = 4
JACKKNIFE_GROUPS = 10


@dataclass(frozen=True)
class EntropyValue:
    value: float
    method: str
    stderr: float | None = None


def real_gaussian_entropy(s) -> EntropyValue:
    """Entropy of a real Gaussian with covariance S: 0.5 log det(2 pi e S)."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.size == 0:
        raise DimensionMismatch("covariance must be non-empty and square")
    if not linalg._symmetric_within_tol(s, hermitian=False):
        raise NotPositiveDefinite("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (s + s.T))
    if linalg._not_positive(eigs[0], eigs[-1]):
        raise NotPositiveDefinite(f"smallest eigenvalue {eigs[0]:.3e} not positive")
    value = 0.5 * float(np.sum(np.log(2.0 * np.pi * np.e * eigs)))
    return EntropyValue(value=value, method=CLOSED_FORM)


def neeser_massey_bound(c) -> EntropyValue:
    """Covariance-only entropy bound log det(pi e C) (equality: proper Gaussian).

    c is a Hermitian matrix, or a SecondOrderPair whose cached factorization
    supplies the eigenvalues of its C.
    """
    if isinstance(c, second_order.SecondOrderPair):
        d = c.factors.cov_eigenvalues()
    else:
        _, d = linalg.hermitian_eig(c)
    if linalg._not_positive(d[-1], d[0]):
        raise NotPositiveDefinite(f"smallest eigenvalue {d[-1]:.3e} not positive")
    value = float(np.sum(np.log(np.pi * np.e * d)))
    return EntropyValue(value=value, method=CLOSED_FORM)


def complex_gaussian_entropy(pair: second_order.SecondOrderPair) -> EntropyValue:
    """Entropy of the complex Gaussian with moments (C, P).

    log det(pi e C) + 0.5 sum log(1 - lambda_i^2); requires every circularity
    coefficient below 1 (SpectrumAtOne otherwise) and a valid non-singular pair.
    """
    lambdas = pair.factors.spectrum_below_one()
    base = neeser_massey_bound(pair).value
    value = base + 0.5 * float(np.sum(np.log1p(-(lambdas**2))))
    return EntropyValue(value=value, method=CLOSED_FORM)


def __getattr__(name):
    # Loads scipy's kd-tree on first access and caches it as a module global.
    if name == "cKDTree":
        from scipy.spatial import cKDTree

        globals()["cKDTree"] = cKDTree
        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _kdtree():
    """The kd-tree class the estimators build with (the module's cKDTree)."""
    return globals().get("cKDTree") or __getattr__("cKDTree")


def _unit_ball_log_volume(d: int) -> float:
    from scipy.special import gammaln

    return 0.5 * d * np.log(np.pi) - gammaln(0.5 * d + 1.0)


def _spatial_order(points: np.ndarray) -> np.ndarray:
    """Row order along a Z-order (Morton) curve through the points' bounding box.

    Quantises each of the first dims = min(d, 63) coordinates to
    bits = min(32, 63 // dims) bits, interleaves the bits into one
    non-negative int64 key per row (bit b of coordinate j lands at bit
    b * dims + dims - 1 - j) and sorts the keys stably. Rows close in the
    order are close in space.
    """
    n, d = points.shape
    dims = min(d, 63)
    bits = min(32, 63 // dims)
    x = points[:, :dims]
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    q = x - lo
    q *= (2.0**bits - 1.0) / np.where(span > 0, span, 1.0)
    q = q.astype(np.uint32)
    # spread[v] moves bit i of the byte v to bit i * dims
    width = min(bits, 8)
    byte = np.arange(2**width)
    spread = np.zeros(2**width, dtype=np.int64)
    for i in range(width):
        spread |= ((byte >> i) & 1) << (i * dims)
    key = np.zeros(n, dtype=np.int64)
    for lowest in range(0, bits, 8):
        for j in range(dims):
            key |= spread[(q[:, j] >> lowest) & 255] << (lowest * dims + dims - 1 - j)
    return np.argsort(key, kind="stable")


def _kth_distance(tree, points: np.ndarray, k: int, order: np.ndarray) -> np.ndarray:
    """Distance from each row of points to its k-th nearest tree point (k >= 1).

    Queries the rows in the given order and returns the distances in row
    order; each row is answered on its own, so any order gives the same bits.
    """
    dist = np.empty(points.shape[0])
    dist[order] = tree.query(points[order], k=[k], workers=-1)[0][:, 0]
    return dist


def _check_ties(dist: np.ndarray, what: str) -> None:
    tied = int(np.count_nonzero(dist == 0.0))
    if tied:
        raise TiedSamples(tied, dist.shape[0], what)


def _knn_entropy_points(points: np.ndarray, k: int, boxsize=None):
    """Kozachenko-Leonenko estimate on raw d-dimensional points.

    Returns (value, per_point_terms); value = mean(per_point_terms).
    boxsize follows cKDTree: per-dimension period, 0 = not periodic.
    Raises TiedSamples when a point's k-th neighbor distance is 0.
    """
    from scipy.special import digamma

    points = np.ascontiguousarray(points, dtype=float)
    n, d = points.shape
    tree = _kdtree()(points, boxsize=boxsize)
    eps = _kth_distance(tree, points, k + 1, _spatial_order(points))
    _check_ties(eps, f"k-th neighbor distance (k={k})")
    const = (
        digamma(n) - digamma(k) + _unit_ball_log_volume(d)
    )
    terms = const + d * np.log(eps)
    return float(terms.mean()), terms


def _grouped_jackknife_stderr(terms: np.ndarray, groups: int = JACKKNIFE_GROUPS) -> float:
    """Delete-group jackknife stderr of a mean over per-point contributions."""
    n = terms.shape[0]
    groups = min(groups, n)
    chunks = np.array_split(np.arange(n), groups)
    total = terms.sum()
    loo = np.array([(total - terms[idx].sum()) / (n - len(idx)) for idx in chunks])
    g = len(loo)
    return float(np.sqrt((g - 1) / g * np.sum((loo - loo.mean()) ** 2)))


def knn_entropy(samples: second_order.SampleSet, k: int = DEFAULT_K) -> EntropyValue:
    """kNN entropy of a complex sample set, in nats.

    Runs Kozachenko-Leonenko with Euclidean metric on the stacked real
    representation [Re x; Im x]. The stderr is a delete-group jackknife over
    the per-point contributions (10 equal index blocks). Raises TiedSamples
    when some point has k or more exact duplicates.
    """
    if samples.count < 100 * k:
        raise TooFewSamples(f"need at least {100 * k} samples for k={k}")
    points = linalg.real_vector(samples.data)
    value, terms = _knn_entropy_points(points, k)
    stderr = _grouped_jackknife_stderr(terms)
    return EntropyValue(value=value, method=KNN_ESTIMATE, stderr=stderr)


def knn_kl_divergence(
    p_samples: second_order.SampleSet,
    q_samples: second_order.SampleSet,
    k: int = DEFAULT_K,
) -> float:
    """Two-sample kNN estimate of D(p || q) in nats, clamped at 0.

    For each p-point, compares the k-th neighbor distance within the p-sample
    (self excluded) against the k-th neighbor distance into the q-sample:
    D-hat = (d/N) sum log(nu_i / rho_i) + log(M / (N - 1)).
    Raises TiedSamples when either distance is 0 for some p-point.
    """
    if p_samples.n != q_samples.n:
        raise DimensionMismatch("sample sets must share the dimension")
    if p_samples.count < 100 * k or q_samples.count < 100 * k:
        raise TooFewSamples(f"need at least {100 * k} samples in each set for k={k}")
    x = linalg.real_vector(p_samples.data)
    y = linalg.real_vector(q_samples.data)
    n, d = x.shape
    m = y.shape[0]
    kdtree = _kdtree()
    order = _spatial_order(x)
    rho = _kth_distance(kdtree(x), x, k + 1, order)
    _check_ties(rho, f"k-th neighbor distance within p (k={k})")
    nu = _kth_distance(kdtree(y), x, k, order)
    _check_ties(nu, f"k-th neighbor distance into q (k={k})")
    est = d * float(np.mean(np.log(nu) - np.log(rho))) + np.log(m / (n - 1))
    return max(0.0, float(est))
