"""Comparison methods: k-means + per-group regression, and the
no-subgroup spatially varying coefficient fit."""

from __future__ import annotations

import logging

import numpy as np

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .linmodel import mvls_fit  # noqa: F401 -- benchmarks/test_benchmarks.py wraps this binding
from .projection import project
from .sem import (DegenerateGroupError, FitResult, ModelParams, SemConfig,
                  fit_sem, m_step, prepare, q_value)

logger = logging.getLogger(__name__)


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
    are re-seeded at the point farthest from its assigned centroid."""
    n, n_clusters = points.shape[0], centroids.shape[0]
    labels = np.full(n, -1)
    trace = []
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
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


def kmeans(points: np.ndarray, n_clusters: int, seed: int = 0,
           max_iter: int = 100, n_init: int = 10) -> np.ndarray:
    """Cluster rows of `points` into 1..n_clusters labels.

    k-means++ seeding followed by Lloyd iterations until assignments are
    stable or `max_iter`; `n_init` independent seedings are run and the
    lowest within-cluster sum of squares wins. Deterministic given `seed`.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n_clusters > n:
        raise ValueError(f"n_clusters={n_clusters} exceeds point count {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    best_labels, best_inertia = None, np.inf
    for _ in range(n_init):
        centroids = _kmeanspp_seed(points, n_clusters, rng)
        labels, trace = _lloyd(points, centroids, max_iter)
        if trace[-1] < best_inertia:
            best_inertia = trace[-1]
            best_labels = labels
    return best_labels + 1


@_blas.single_thread
def kmlr_fit(dataset: Dataset, basis: BasisSystem, n_groups: int,
             config: SemConfig = None) -> FitResult:
    """K-means labels alternated with the shared M-step.

    k-means clusters the stage-1 residuals of the prepared problem (site and
    control effects removed; stage 1 does not depend on labels, so they are
    fixed), and the label / M-step alternation continues with
    nearest-centroid reassignment until the labels are stable.
    Responsibilities are the hard 0/1 labels. Runs with BLAS pinned to one
    thread, as `fit_sem` does.
    """
    config = config or SemConfig()
    problem = prepare(project(dataset.images, basis), dataset)
    resid = problem.resid

    labels = None
    for attempt in range(10):
        cand = kmeans(resid, n_groups, seed=config.seed * 100 + attempt)
        counts = np.bincount(cand, minlength=n_groups + 1)[1:]
        if counts.min() >= dataset.p + 2:
            labels = cand
            break
    if labels is None:
        raise RuntimeError("no viable fit: k-means produced degenerate groups")

    trace = []
    converged = False
    params = None
    for it in range(config.max_iter):
        try:
            params = m_step(problem, None, labels, n_groups, config.lambda_floor,
                            w_init=None if params is None else params.w)
        except DegenerateGroupError as exc:
            raise RuntimeError(f"no viable fit: {exc}") from exc
        trace.append(q_value(problem, None, labels, params))
        centroids = np.stack([resid[labels == k].mean(axis=0)
                              for k in range(1, n_groups + 1)])
        d2 = ((resid[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1) + 1
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    resp = np.zeros((dataset.n, n_groups))
    resp[np.arange(dataset.n), labels - 1] = 1.0
    return FitResult(params=params, responsibilities=resp, labels=labels,
                     q_trace=np.array(trace), converged=converged,
                     seed=config.seed, iterations=len(trace), method="kmlr")


def svcm_fit(dataset: Dataset, basis: BasisSystem,
             lambda_floor: float = 1e-10) -> ModelParams:
    """No-subgroup fit: the K=1 reduction of `fit_sem`, one M-step with
    every individual in a single group."""
    return fit_sem(dataset, basis, 1, SemConfig(lambda_floor=lambda_floor)).params
