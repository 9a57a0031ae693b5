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
takes a bare matrix C, whose eigendecomposition linalg.hermitian_eig
memoizes on C's content: a C factored recently, by validate_pair or by a
pair's factorization, is not factored again. A log-determinant is
sum log d + n log(pi e) (linalg's range rule), so it is finite for every
positive float eigenvalue, from the subnormals to the float maximum. The
kNN searches below are kept per SampleSet object, not per content.

All values are in nats. The complex closed form always agrees with
real_gaussian_entropy(real_covariance(pair)): a complex Gaussian is the
Gaussian of its real representation.

Estimators
----------
knn_entropy implements the Kozachenko-Leonenko k-nearest-neighbor estimator
on the 2n-dimensional real representation (Euclidean metric, default k = 4).
The estimate is the mean of one term per point, and its standard error is
the standard error of that mean, std(terms) / sqrt(N), which does not depend
on the order of the rows.
knn_kl_divergence is the two-sample nearest-neighbor divergence estimator
(Wang-Kulkarni-Verdu), clamped at zero. Estimator accuracy is calibrated
for dimensions 2n <= 10 at sample sizes around 1e5; tolerances in the
test-suite are frozen there.

The kd-tree query dominates their cost, so each sample set is searched
once per k. A SampleSet holds a sealed array, and the first estimator
that needs the k-th neighbor distances of a set within itself searches the
set: one tree build, two from d = 8 (a search at d = 1, which only
divergence_to_analog makes, builds none; see the bands below), one answer
for each point, and cached on the set only the order the search visited
the points in (8 bytes a point, sealed) and scalars: N, d, the tie count,
the Kozachenko-Leonenko value and stderr, and the mean log distance.
knn_entropy returns that value; knn_kl_divergence is the difference of two
means, d (mean log nu - mean log rho) + log(M / (N - 1)), so it adds only
q's tree and the query of p's points into it; analog_entropy_gap reads
h(x) through knn_entropy. Keeping the N distances instead would hold a
large float array for the lifetime of the set.

Only the distance step of a search depends on the real dimension d of its
points, in three bands; the tie count, the logarithm and the terms are
computed once, for every d, by _search_points:

* d = 1 with no period (divergence_to_analog's reduced coordinate at n = 1,
  the modulus alone): no tree. The values are sorted once (a stable
  argsort), and the k-th nearest other value of sorted value i is min over
  j = 0..k of max(L_j, R_(k-j)), L_j and R_j the distances to the j-th
  value on its left and on its right (L_0 = R_0 = 0, inf past the ends).
  A distance is sqrt(diff * diff), as cKDTree computes it, not |diff|:
  where diff**2 underflows to 0 cKDTree reports a tie, and where it
  overflows it reports inf, so |diff| would change ties and values. A
  class put in the module's cKDTree is not consulted in this band.
* d = 2 (and a periodic d = 1): one tree with sliding-midpoint splits
  (balanced_tree=False, compact_nodes=False), not scipy's median splits.
* d >= 3: scipy's default tree, below the crossover at d = 8 described
  below, and the leaf-ordered copy from d = 8 up.

Every tree the estimators query comes from one function, _tree. Each query
asks for the k-th neighbor distance alone, and a set's points are visited
in one order, the order of the set's own search, where consecutive queries
walk the same tree nodes while they are still in cache: a self-search
visits them in its tree's leaf order (cKDTree.indices, which the build
computes anyway; the sort at d = 1), and knn_kl_divergence queries p's
points into q's tree in the order p's cached search kept. A tree class
without ``indices`` visits them in row order. The distances are scattered
back to row order.

The cross query gains nothing from an order of its own. Against a walk
along a bit-interleaving space-filling curve through p's bounding box,
reusing p's leaf order gains at 2n <= 4 and is level beyond, where two
sets of runs split either way, with every estimate bit-identical. Median
ms of calls alternating in one process, p's search cached except in the
verify row, on 2 cores (Python 3.11, numpy 2.4, scipy 1.17):

  case (runs)                                          curve  p's leaf order
  verify's "kNN divergence", 2n = 2, N = 1e5 (15)        336       292
  knn_kl_divergence, 2n = 2, N = 1e5 (15)                101        85
  knn_kl_divergence, 2n = 4, N = 1e5 (15)                212       196
  knn_kl_divergence, 2n = 8, N = 1e5 (8; 10)      2763; 2879  2827; 2854
  knn_kl_divergence, 2n = 10, N = 2.5e4 (10; 20)  1248; 1339  1304; 1319

The layout of a tree's points depends on d too. Below the crossover,
d < _LEAF_ORDER_MIN_DIM = 8, the tree is built once over the points as
given, with cKDTree's default 16-point leaves. From d = 8 up, a
first tree is built only to read its leaf order and then dropped; the
points are copied into that order, and the tree queried is built over the
copy with _LEAF_ORDER_LEAFSIZE = 32-point leaves, so each leaf is a
contiguous run of rows, and a self-search queries the copy in row order.
A tree class without ``indices`` keeps the one tree. Every point is
answered on its own, and a k-th neighbor distance is the same float
whichever tree finds it, so neither the visiting order nor the layout
changes a bit of the result.

The crossover and the leaf size come from this table: one self-search
(build and query, k = 4), median of five alternating pairs, in ms, on 2
cores (Python 3.11, numpy 2.4, scipy 1.17). Open points are Gaussian, as
the knn benchmark draws them; periodic ones are divergence_to_analog's
sheared coordinates (d = 2n or 2n - 1, the phases on [0, 1) circles).

       N   d  points    one tree  leaf-ordered copy
  100000   3  periodic       245       280  (+14%)
  100000   4  open           249       255  (+2%)
  100000   4  periodic       404       437  (+8%)
  100000   6  open           906       851  (-6%)
  100000   6  periodic      1780      1769  (-1%)
  100000   7  open          1705      1558  (-9%)
  100000   7  periodic      3211      3133  (-2%)
  100000   8  open          2949      2318  (-21%)
  100000   8  periodic      5489      5087  (-7%)
   25000  10  open          1229       861  (-30%)
   25000  10  periodic       994       845  (-15%)
  100000  10  open          7923      5705  (-28%)

Below d = 8 the copy gains nothing beyond the noise of these runs (some
10%) and loses up to 14% on the periodic searches; from 8 up it gains in
every row. In one run at d = 8 (N = 100000) and d = 10 (N = 25000), copies
with 16-point leaves gained -12% and -8%, with 32-point leaves -24% and
-28%, and with 64-point leaves -26% and -23%.

The sort at d = 1 and the sliding-midpoint band at d <= _MIDPOINT_MAX_DIM
= 2 come from this table: one self-search (build and query, k = 4) of N =
100000 points, median of nine alternating runs, in ms, on the same 2
cores. The d = 1 and d = 2 rows are the sets the verify suites draw; the
mixture is the entropy suite's two improper Gaussians, BPSK goes through
the capacity suite's CN(0, 1) noise, and "circularized" sets have uniform
phases.

   d  points                               scipy's tree  new
   1  open (the modulus)                        133        20  (-85%, sorted)
   2  open (proper Gaussian)                    143       121  (-16%)
   2  open (improper Gaussian)                  139       116  (-17%)
   2  open (mixture)                            130       112  (-14%)
   2  open (circularized mixture)               126       112  (-11%)
   2  open (BPSK through noise)                 128       111  (-13%)
   2  open (circularized BPSK through noise)    126       109  (-13%)
   2  periodic (n = 1 sheared)                  154       142   (-8%)
   3  periodic (n = 2 sheared)                  261       243   (-7%)
   4  open                                      296       279   (-6%)

The d = 3 and d = 4 rows show midpoint splits, which are not used there:
an earlier run read them level at d = 3 (248 -> 242) and 7% slower at
d = 4 (252 -> 270), so the band stops at d = 2, where every row of both
runs gained. In the earlier run, leaf sizes 8 and 32 were no better at
d = 2.

cKDTree and the sorted search compare squared distances, which overflow
to inf above about 1e154 and lose bits below about 1e-154 (1000 points
scaled by 1e160 would read an entropy of inf, and by 1e-170 all tie). So
every set is searched at its own power-of-two scale: a SampleSet caches
the even exponent e for which the RMS modulus of its entries lies in
[2^(e-1), 2^(e+1)), its search runs on 2^-e times its points, an exact
scaling, and d e log 2 is added to the value. A set drawn at unit scale
has e = 0 and is searched as given, bit for bit. knn_kl_divergence's query
of p's points into q's tree runs at the larger of the two sets' exponents,
and only the difference of that exponent and p's enters its value, so two
sets rescaled by one power of four keep their divergence bit for bit.
divergence_to_analog measures each radius in units of its own RMS
(analog), so its coordinates need no exponent.

A k-th neighbor distance of 0 (k or more other points at the very same
place) has no logarithm: the estimators raise TiedSamples, which counts
the tied points, instead of returning a meaningless value.

Only the estimators need scipy (cKDTree, digamma, gammaln), and they load
it on first use: the closed forms, and every module that imports them, run
on numpy alone. The module attribute ``cKDTree`` still resolves to
scipy.spatial.cKDTree (loaded on first access), and the estimators build
their trees with whatever that attribute holds when they are called; a
search at d = 1 with no period builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, second_order
from .errors import (DimensionMismatch, NotPositiveDefinite, NotSymmetric, TiedSamples,
                     TooFewSamples)

CLOSED_FORM = "CLOSED_FORM"
KNN_ESTIMATE = "KNN_ESTIMATE"

DEFAULT_K = 4

# _tree's bands of real dimension d and the leaf size of its copies, from
# the tables in the module docstring: sliding-midpoint splits up to d = 2,
# scipy's default median splits from 3, a leaf-ordered copy from 8
_MIDPOINT_MAX_DIM = 2
_LEAF_ORDER_MIN_DIM = 8
_LEAF_ORDER_LEAFSIZE = 32
_LOG_PIE = float(np.log(np.pi * np.e))  # log(pi e), the entropy of CN(0, 1)


@dataclass(frozen=True)
class EntropyValue:
    value: float
    method: str
    stderr: float | None = None


def real_gaussian_entropy(s) -> EntropyValue:
    """Entropy of a real Gaussian with covariance S: 0.5 log det(2 pi e S)."""
    s = linalg.as_matrix(s, dtype=float, square=True)
    if not linalg._symmetric_within_tol(s, hermitian=False):
        raise NotSymmetric("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * s + 0.5 * s.T)
    if linalg._not_positive(eigs[0], eigs[-1]):
        raise NotPositiveDefinite(f"smallest eigenvalue {eigs[0]:.3e} not positive")
    value = 0.5 * float(np.log(eigs).sum() + eigs.size * np.log(2.0 * np.pi * np.e))
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
    return EntropyValue(value=_log_det_pi_e(d), method=CLOSED_FORM)


def _log_det_pi_e(d) -> float:
    """log det(pi e C) = sum log d + n log(pi e), from the positive eigenvalues d of C."""
    return float(np.log(d).sum()) + d.size * _LOG_PIE


def complex_gaussian_entropy(pair: second_order.SecondOrderPair) -> EntropyValue:
    """Entropy of the complex Gaussian with moments (C, P).

    log det(pi e C) + 0.5 sum log(1 - lambda_i^2), read from the pair's
    factorization; requires every circularity coefficient below 1
    (SpectrumAtOne otherwise) and a valid non-singular pair, whose C passed
    the positivity test neeser_massey_bound makes.
    """
    factors = pair.factors
    lambdas = factors.spectrum_below_one()
    value = _log_det_pi_e(factors.d) + 0.5 * float(np.log1p(-(lambdas**2)).sum())
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


def _tree(points: np.ndarray, boxsize=None):
    """(tree, order, rows): the kd-tree the estimators query over points.

    Every tree the estimators build comes from here, made by the module's
    cKDTree, with sliding-midpoint splits up to _MIDPOINT_MAX_DIM real
    dimensions and scipy's default ones above. order is the leaf order
    (``indices``) of the tree built over points, and rows the copy
    points[order]. Below _LEAF_ORDER_MIN_DIM real dimensions that tree is
    returned. From _LEAF_ORDER_MIN_DIM up it only gives the order: the tree
    returned is built over rows with _LEAF_ORDER_LEAFSIZE-point leaves, so
    each leaf reads a contiguous run of rows. A tree class without
    ``indices`` gives row order (rows = points) and its one tree. Which tree
    finds a k-th neighbor distance does not change its bits.
    """
    split = ({"balanced_tree": False, "compact_nodes": False}
             if points.shape[1] <= _MIDPOINT_MAX_DIM else {})
    tree = _kdtree()(points, boxsize=boxsize, **split)
    if not hasattr(tree, "indices"):  # a tree class need only build and query
        return tree, np.arange(points.shape[0]), points
    order = tree.indices
    rows = points[order]
    if points.shape[1] < _LEAF_ORDER_MIN_DIM:
        return tree, order, rows
    return _kdtree()(rows, leafsize=_LEAF_ORDER_LEAFSIZE, boxsize=boxsize), order, rows


def _kth_distance(tree, rows: np.ndarray, k: int, order: np.ndarray) -> np.ndarray:
    """Distance from each point to its k-th nearest tree point (k >= 1), in point order.

    rows holds the points in visiting order, rows[i] = points[order[i]]: the
    rows are queried in row order and the distances scattered back through
    order. Each row is answered on its own, so any order gives the same bits.
    """
    dist = np.empty(rows.shape[0])
    dist[order] = tree.query(rows, k=[k], workers=-1)[0][:, 0]
    return dist


def _sorted_kth_distance(values: np.ndarray, k: int):
    """(dist, order): each 1-D value's distance to its k-th nearest other value
    (k >= 1), in the values' order, and the sorted order that visited them.

    The sorted search of the module docstring: min over j = 0..k of
    max(L_j, R_(k-j)) in sorted order, with -inf and +inf padding past the
    ends, scattered back to the values' order. The min and max are taken
    over the squared differences and sqrt is monotone, so one sqrt at the
    end gives the bits of cKDTree's sqrt(diff * diff).
    """
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    v = values[order]
    pad = np.full(k, np.inf)
    padded = np.concatenate([-pad, v, pad])
    kth = np.full(n, np.inf)
    with np.errstate(over="ignore"):  # diff**2 beyond float range is inf, as in cKDTree
        for j in range(k + 1):
            left = v - padded[k - j:k - j + n]
            right = padded[2 * k - j:2 * k - j + n] - v
            np.minimum(kth, np.maximum(left * left, right * right), out=kth)
    dist = np.empty(n)
    dist[order] = np.sqrt(kth)
    return dist, order


def _kth_other_distance(points: np.ndarray, k: int, boxsize=None):
    """(dist, order): each point's distance to its k-th nearest other point, in
    point order, and the order the search visited the points in.

    At d = 1 with no period a sort answers it (_sorted_kth_distance) and no
    tree is built. Otherwise the points' tree (_tree) answers one (k+1)-th
    neighbor query of every point, in its order: the nearest neighbor of a
    point is the point itself.
    """
    if points.shape[1] == 1 and boxsize is None:
        return _sorted_kth_distance(points[:, 0], k)
    tree, order, rows = _tree(points, boxsize)
    return _kth_distance(tree, rows, k + 1, order), order


def _knn_guard(k, *sample_sets) -> None:
    """k must be an integer >= 1 (DomainError) and each set hold 100 k points (TooFewSamples)."""
    linalg._int_at_least(k, "k")
    if min(samples.count for samples in sample_sets) < 100 * k:
        raise TooFewSamples(f"need at least {100 * k} samples for k={k}")


def _check_ties(dist: np.ndarray, what: str) -> None:
    tied = int(np.count_nonzero(dist == 0.0))
    if tied:
        raise TiedSamples(tied, dist.shape[0], what)


@dataclass(frozen=True)
class _SelfSearch:
    """What the estimators keep of one search of a point set within itself.

    count, dim: N and the real dimension d; ties: how many points have a
    k-th neighbor distance rho of 0; order: the sealed order the search
    visited the points in, which knn_kl_divergence's query of them into
    another set's tree reuses. Without ties, value and stderr are the
    Kozachenko-Leonenko estimate and its standard error, and mean_log_rho
    is the mean of log rho in the unit of the points searched (2^e for a
    set searched at its exponent e); with ties all three are NaN. Only the
    order and scalars are kept, not the N distances.
    """

    count: int
    dim: int
    ties: int
    order: np.ndarray = field(compare=False)
    value: float = float("nan")
    stderr: float = float("nan")
    mean_log_rho: float = float("nan")

    def untied(self, what: str) -> "_SelfSearch":
        """self, or a fresh TiedSamples naming what is 0 when some point tied."""
        if self.ties:
            raise TiedSamples(self.ties, self.count, what)
        return self


def _search_points(points: np.ndarray, k: int, boxsize=None, exponent: int = 0) -> _SelfSearch:
    """Each row's distance rho to its k-th nearest other row (_kth_other_distance),
    reduced to the scalars of a _SelfSearch, with the order that visited the rows.

    boxsize follows cKDTree: per-dimension period, 0 = not periodic. Points
    searched at 2^-e times their scale, e = exponent, give the entropy at
    their own scale: d e log 2 is added to the value. mean_log_rho stays in
    the unit of the points searched.
    """
    from scipy.special import digamma

    points = np.ascontiguousarray(points, dtype=float)
    n, d = points.shape
    rho, order = _kth_other_distance(points, k, boxsize)
    order = linalg._sealed(order)
    ties = int(np.count_nonzero(rho == 0.0))
    if ties:
        return _SelfSearch(n, d, ties, order)
    log_rho = np.log(rho)
    terms = digamma(n) - digamma(k) + _unit_ball_log_volume(d) + d * log_rho
    return _SelfSearch(n, d, 0, order, float(terms.mean() + d * exponent * np.log(2.0)),
                       float(terms.std(ddof=1) / np.sqrt(n)), float(log_rho.mean()))


def _scaled_points(samples: second_order.SampleSet, e: int) -> np.ndarray:
    """The set's real representation times 2^-e, exact unless a result is subnormal."""
    points = linalg.real_vector(samples.data)
    return np.ldexp(points, -e, out=points)


def _self_search(samples: second_order.SampleSet, k: int) -> _SelfSearch:
    """The set's search for k, over its real representation; cached on the set on first use.

    Searched at 2^-e times the points, e the set's exponent, with d e log 2
    added to the value (the module docstring).
    """
    found = samples._searches.get(k)
    if found is None:
        e = samples._exponent
        found = samples._searches[k] = _search_points(_scaled_points(samples, e), k, exponent=e)
    return found


def _knn_entropy_points(points: np.ndarray, k: int, boxsize=None) -> float:
    """Kozachenko-Leonenko estimate on raw d-dimensional points, searched afresh.

    For coordinates no SampleSet holds (divergence_to_analog's sheared
    ones). Raises TiedSamples when a point's k-th neighbor distance is 0.
    """
    return _search_points(points, k, boxsize).untied(f"k-th neighbor distance (k={k})").value


def knn_entropy(samples: second_order.SampleSet, k: int = DEFAULT_K) -> EntropyValue:
    """kNN entropy of a complex sample set, in nats.

    Runs Kozachenko-Leonenko with Euclidean metric on the stacked real
    representation [Re x; Im x]. The stderr is the standard error of the
    mean of the per-point contributions, std(terms, ddof=1) / sqrt(N).
    Reads the set's cached search for k. Raises TiedSamples when some point
    has k or more exact duplicates.
    """
    _knn_guard(k, samples)
    search = _self_search(samples, k).untied(f"k-th neighbor distance (k={k})")
    return EntropyValue(value=search.value, method=KNN_ESTIMATE, stderr=search.stderr)


def knn_kl_divergence(
    p_samples: second_order.SampleSet,
    q_samples: second_order.SampleSet,
    k: int = DEFAULT_K,
) -> float:
    """Two-sample kNN estimate of D(p || q) in nats, clamped at 0.

    For each p-point, compares the k-th neighbor distance within the p-sample
    (self excluded) against the k-th neighbor distance into the q-sample:
    D-hat = d (mean log nu - mean log rho) + log(M / (N - 1)). mean log rho
    is read from p's cached search for k; only q's tree is built here, and
    p's points are queried into it in the order p's search visited them.
    The query runs at the larger of p's and q's exponents (the module docstring).
    Raises TiedSamples when either distance is 0 for some p-point.
    """
    if p_samples.n != q_samples.n:
        raise DimensionMismatch("sample sets must share the dimension")
    _knn_guard(k, p_samples, q_samples)
    search = _self_search(p_samples, k).untied(f"k-th neighbor distance within p (k={k})")
    e = max(p_samples._exponent, q_samples._exponent)
    x, y = _scaled_points(p_samples, e), _scaled_points(q_samples, e)
    nu = _kth_distance(_tree(y)[0], x[search.order], k, search.order)
    _check_ties(nu, f"k-th neighbor distance into q (k={k})")
    # in the unit of p's search, 2^p._exponent, as mean_log_rho is
    mean_log_nu = float(np.log(nu).mean()) + (e - p_samples._exponent) * np.log(2.0)
    est = (search.dim * (mean_log_nu - search.mean_log_rho)
           + np.log(q_samples.count / (search.count - 1)))
    return max(0.0, float(est))
