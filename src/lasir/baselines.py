"""Comparison methods: k-means + per-group regression, and the
no-subgroup spatially varying coefficient fit.

k-means assigns points by one product per Lloyd step, screened by a
rounding bound so that its labels are those of the exact squared distances
(`_lloyd`)."""

from __future__ import annotations

import logging

import numpy as np

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .linmodel import mvls_fit  # noqa: F401 -- benchmarks/test_benchmarks.py wraps this binding
from .projection import projected
from .sem import (DegenerateGroupError, FitResult, ModelParams, SemConfig,
                  check_count, fit_at_labels, fit_sem, prepare)

logger = logging.getLogger(__name__)

KMEANS_MAX_ITER = 100  # Lloyd iterations per seeding
KMEANS_INIT = 10       # k-means++ seedings; the lowest inertia wins
# The screen's margin in rounding bounds (`_lloyd`): 4 is the least that is
# sound, and the other factor 2 covers the rounding of the margin itself.
SCREEN = 8.0


def _kmeanspp_seed(points, n_clusters, rng):
    """k-means++ seeding: each new centroid drawn with probability
    proportional to squared distance from the nearest chosen one."""
    n = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, n_clusters):
        total = d2.sum()
        if total <= 0.0:
            centroids[k] = points[rng.integers(n)]
        else:
            centroids[k] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[k]) ** 2).sum(axis=1))
    return centroids


def _sq_dist(points, centroids):
    """Squared distances, row i to centroid i, in the exact form: the
    differences squared and summed along each row."""
    return ((points - centroids) ** 2).sum(axis=1)


def _lloyd(points, centroids, max_iter, sq_norms=None):
    """Lloyd iterations from `centroids` (updated in place); returns the
    labels (0-based) and their inertia, the sum of each point's squared
    distance to the centroid it was assigned to, in the exact form
    (`_sq_dist`). The labels are those of the exact form's argmin, the
    lowest index on a tie; an empty cluster is re-seeded at the point
    farthest from its assigned centroid among the clusters of two or more
    members (with fewer clusters than points one always exists), so that no
    re-seed empties another cluster.

    Each step screens the assignment with one product, h = ||c||^2 -
    2 X C': the squared distance less the row's ||x||^2, which every
    centroid shares. This form and the exact form are each within
    gamma_{L+2} (||x|| + ||c||)^2 of the true squared distance, gamma_m =
    m u / (1 - m u) with u the unit roundoff, whatever order the product
    sums in (Higham 2002, sec. 3.1). So where a row's runner-up h exceeds
    its least h by `SCREEN` times that bound, taken at the largest ||c||,
    the exact form has the same unique argmin, and the row takes it without
    the exact form. The other rows take the exact form's distances, as does
    every row when a cluster empties and, once, the final inertia; so the
    labels and the inertia are the exact form's at every step, bit for
    bit, whatever the size of the BLAS pool. `sq_norms` holds the points'
    squared norms ||x||^2 for the bound (computed when not given). The
    points must be finite (`kmeans` checks them).
    """
    n, n_clusters = points.shape[0], centroids.shape[0]
    if sq_norms is None:
        sq_norms = np.einsum("ij,ij->i", points, points)
    rows = np.arange(n)
    m_u = (points.shape[1] + 2) * np.finfo(np.float64).eps / 2
    gamma = m_u / (1 - m_u)
    labels = np.full(n, -1)
    for step in range(max_iter):
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        h = c_sq - 2.0 * (points @ centroids.T)
        new_labels = h.argmin(axis=1)
        least = h[rows, new_labels]
        h[rows, new_labels] = np.inf  # a lone centroid has no runner-up: every row is sure
        bound = SCREEN * gamma * (np.sqrt(sq_norms) + np.sqrt(c_sq.max())) ** 2
        unsure = np.flatnonzero(~(h.min(axis=1) - least > bound))
        near = points[unsure]
        new_labels[unsure] = np.stack([_sq_dist(near, c) for c in centroids], axis=1).argmin(axis=1)
        for k in range(n_clusters):
            if not np.any(new_labels == k):
                shared = np.bincount(new_labels, minlength=n_clusters)[new_labels] > 1
                far = int(np.argmax(np.where(shared, _sq_dist(points, centroids[new_labels]),
                                             -np.inf)))
                centroids[k] = points[far]
                new_labels[far] = k
        if step == max_iter - 1 or np.array_equal(new_labels, labels):
            return new_labels, float(_sq_dist(points, centroids[new_labels]).sum())
        labels = new_labels
        for k in range(n_clusters):
            centroids[k] = points[labels == k].mean(axis=0)


def kmeans(points: np.ndarray, n_clusters: int, seed: int = 0) -> np.ndarray:
    """Cluster rows of `points` into 1..n_clusters labels.

    k-means++ seeding followed by Lloyd iterations (`_lloyd`) until
    assignments are stable or `KMEANS_MAX_ITER`; `KMEANS_INIT` independent
    seedings are run and the lowest within-cluster sum of squares wins. The
    squared row norms that `_lloyd`'s screen reads are taken once and shared
    by the seedings. Deterministic given `seed`. Raises ValueError unless
    `n_clusters` is an integer (`sem.check_count`) with 1 <= n_clusters <=
    number of points, or naming the first point that holds a NaN or an
    infinity.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    check_count(n_clusters, "n_clusters")
    if n_clusters > n:
        raise ValueError(f"n_clusters={n_clusters} exceeds point count {n}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {int(np.argmin(finite))} holds a non-finite value")
    sq_norms = np.einsum("ij,ij->i", points, points)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_INIT):
        centroids = _kmeanspp_seed(points, n_clusters, rng)
        labels, inertia = _lloyd(points, centroids, KMEANS_MAX_ITER, sq_norms)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels + 1


@_blas.single_thread
def kmlr_fit(dataset: Dataset, basis: BasisSystem, n_groups: int,
             config: SemConfig = None) -> FitResult:
    """K-means on the stage-1 residuals, then one M-step at those labels.

    The projection is the dataset's record on `basis`
    (`projection.projected`), which `svcm_fit` and `fit_sem` on the same
    dataset and basis share. k-means clusters the stage-1 residuals of the
    prepared problem (site and control effects removed; stage 1 does not
    depend on labels), and `fit_at_labels` fits the model at the cluster
    labels: the M-step does not move them, so there is nothing to
    alternate. A labelling with a group that fails `sem.check_group` is
    retried from the next k-means seed, up to 10 seeds; then
    RuntimeError("no viable fit: ...") names the last failing group.
    Responsibilities are the hard 0/1 labels. Of `config` only `seed` is
    read. Runs with BLAS pinned to one thread, as `fit_sem` does.
    """
    config = config or SemConfig()
    problem = prepare(projected(dataset, basis).ytilde, dataset)
    for attempt in range(10):
        labels = kmeans(problem.resid, n_groups, seed=config.seed * 100 + attempt)
        try:
            fit = fit_at_labels(problem, labels, n_groups, config)
            break
        except DegenerateGroupError as exc:
            failure = exc
    else:
        raise RuntimeError(f"no viable fit: {failure}") from failure
    fit.method = "kmlr"
    return fit


def svcm_fit(dataset: Dataset, basis: BasisSystem) -> ModelParams:
    """No-subgroup fit: the K=1 reduction of `fit_sem` with the default
    `SemConfig`, one M-step with every individual in a single group."""
    return fit_sem(dataset, basis, 1, SemConfig()).params
