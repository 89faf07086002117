"""Comparison methods: k-means + per-group regression, and the
no-subgroup spatially varying coefficient fit."""

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


def _lloyd(points, centroids, max_iter):
    """Lloyd iterations; returns (labels0, inertia trace). Empty clusters
    are re-seeded at the point farthest from its assigned centroid. The
    squared distances are taken one centroid at a time, so the largest
    temporary is n x L, not n x K x L."""
    n, n_clusters = points.shape[0], centroids.shape[0]
    labels = np.full(n, -1)
    trace = []
    d2 = np.empty((n, n_clusters))
    for _ in range(max_iter):
        for k, centroid in enumerate(centroids):
            d2[:, k] = ((points - centroid) ** 2).sum(axis=1)
        new_labels = d2.argmin(axis=1)
        nearest = d2[np.arange(n), new_labels]
        for k in range(n_clusters):
            if not np.any(new_labels == k):
                far = int(np.argmax(nearest))
                centroids[k] = points[far]
                new_labels[far] = k
                nearest = ((points - centroids[new_labels]) ** 2).sum(axis=1)
        trace.append(float(nearest.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(n_clusters):
            centroids[k] = points[labels == k].mean(axis=0)
    return labels, trace


def kmeans(points: np.ndarray, n_clusters: int, seed: int = 0) -> np.ndarray:
    """Cluster rows of `points` into 1..n_clusters labels.

    k-means++ seeding followed by Lloyd iterations until assignments are
    stable or `KMEANS_MAX_ITER`; `KMEANS_INIT` independent seedings are run
    and the lowest within-cluster sum of squares wins. Deterministic given
    `seed`. Raises ValueError unless `n_clusters` is an integer (`sem.check_count`)
    with 1 <= n_clusters <= number of points.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    check_count(n_clusters, "n_clusters")
    if n_clusters > n:
        raise ValueError(f"n_clusters={n_clusters} exceeds point count {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_INIT):
        centroids = _kmeanspp_seed(points, n_clusters, rng)
        labels, trace = _lloyd(points, centroids, KMEANS_MAX_ITER)
        if trace[-1] < best_inertia:
            best_inertia = trace[-1]
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
