"""Stochastic EM for the latent-subgroup image-on-scalar model.

Each iteration, starting from hard group labels:

* M-step -- stage 1 regresses the projected outcomes on site indicators and
  controls jointly over all individuals (these effects are shared across
  groups); stage 2 regresses the stage-1 residuals on the exposure design
  separately per group; the diagonal noise variances are the pooled mean
  squared stage-2 residuals; stage 3 refits the gating weights by
  multinomial logit on the labels.
* E-step -- posterior group responsibilities proportional to gating prior
  times the diagonal-Gaussian likelihood of the projected outcome, computed
  in log space.
* S-step -- one categorical draw of labels per individual from the
  responsibilities.

The objective traced per iteration is the complete-data value

    Q = sum_i [ log f(ytilde_i | params, label_i) + log Pr(label_i | w, z_i) ]

evaluated at the labels entering the M-step and the parameters it produced.
Convergence is declared when the relative range of Q over a trailing window
falls below a tolerance. Runs restart from independent random label
initializations and the replicate with the highest final Q wins.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .linmodel import (LAMBDA_FLOOR, MNLOGIT_RIDGE, augment, gating_probs,
                       mnlogit_fit, mvls_fit)
from .projection import project

logger = logging.getLogger(__name__)

MAX_REDRAWS = 10


class DegenerateGroupError(RuntimeError):
    """Raised by the M-step when a group is too small or its design collapses."""

    def __init__(self, group: int, why: str = "under-populated"):
        self.group = group
        super().__init__(f"degenerate group {group}: {why}")


@dataclass
class ModelParams:
    """Model parameters in basis-coefficient space.

    theta_alpha : (K, p+1, L) group-specific exposure coefficients
    theta_eta   : (q, L) control coefficients
    theta_gamma : (S, L) site coefficients
    lam         : (L,) diagonal noise variances (> 0)
    w           : (K, q+1) gating weights, last row zero
    """

    theta_alpha: np.ndarray
    theta_eta: np.ndarray
    theta_gamma: np.ndarray
    lam: np.ndarray
    w: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.theta_alpha.shape[0]


@dataclass
class SemConfig:
    """Knobs for `fit_sem`.

    max_iter / window / tol : stop when the relative range of Q over the
        trailing `window` iterations is below `tol`, or at `max_iter`.
    restarts : number of independent replicates; the highest final Q wins.
    seed : master seed; replicate streams are spawned deterministically.
    lambda_floor : lower bound for the noise variances.
    min_group : minimum group size for the M-step (default p+2).
    threads : worker threads for replicates (>= 1). `fit_sem` pins the
        process-wide BLAS pools to one thread, so these threads are the fit's
        only parallelism and results do not depend on them or on
        OPENBLAS_NUM_THREADS.
    init_labels : optional explicit initial labels (1..K), e.g. for warm
        starts or equivariance experiments; replaces the random draw in
        every replicate.
    """

    max_iter: int = 200
    window: int = 5
    tol: float = 1e-4
    restarts: int = 10
    seed: int = 0
    lambda_floor: float = LAMBDA_FLOOR
    min_group: int = None
    threads: int = 1
    ridge: float = MNLOGIT_RIDGE
    init_labels: np.ndarray = None

    def __post_init__(self):
        for name in ("restarts", "threads", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"SemConfig.{name} must be >= 1, got {getattr(self, name)}")
        if self.window > self.max_iter:
            raise ValueError(f"SemConfig.window must be <= max_iter={self.max_iter}, "
                             f"got {self.window}")
        if not self.tol > 0:
            raise ValueError(f"SemConfig.tol must be > 0, got {self.tol}")


@dataclass
class FitResult:
    """Outcome of a fit: parameters, soft and hard assignments, Q trace."""

    params: ModelParams
    responsibilities: np.ndarray
    labels: np.ndarray
    q_trace: np.ndarray
    converged: bool
    seed: int
    iterations: int
    method: str = "lasir"
    replicate: int = 0
    n_groups: int = field(init=False)

    def __post_init__(self):
        self.n_groups = self.params.n_groups


def _group_means(ytilde, dataset, params):
    """Per-group predicted coefficient means, shape (K, n, L)."""
    base = dataset.controls @ params.theta_eta + dataset.sites @ params.theta_gamma
    return np.stack([base + dataset.exposures @ params.theta_alpha[k]
                     for k in range(params.n_groups)])


def e_step(ytilde: np.ndarray, dataset: Dataset, params: ModelParams) -> np.ndarray:
    """Posterior responsibilities (n, K); rows sum to 1.

    Computed in log space with per-row max subtraction: log prior from the
    gating model plus the sum of univariate normal log densities with
    variances `lam`.
    """
    means = _group_means(ytilde, dataset, params)
    lam = params.lam
    const = -0.5 * np.sum(np.log(2.0 * np.pi * lam))
    loglik = np.stack([const - 0.5 * (((ytilde - means[k]) ** 2) / lam).sum(axis=1)
                       for k in range(params.n_groups)], axis=1)
    logprior = np.log(gating_probs(params.w, augment(dataset.controls)))
    lp = logprior + loglik
    if not np.all(np.isfinite(lp)):
        i, k = np.argwhere(~np.isfinite(lp))[0]
        bad = np.argwhere(~np.isfinite((ytilde[i] - means[k, i]) ** 2 / lam)).ravel()
        coord = int(bad[0]) if bad.size else -1
        raise ValueError(f"non-finite log-density for individual {int(i)}, "
                         f"group {int(k) + 1}, coordinate {coord}")
    lp -= lp.max(axis=1, keepdims=True)
    resp = np.exp(lp)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp


def s_step(responsibilities: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw hard labels (1..K) from the responsibility rows.

    One uniform variate per individual, inverted through the CDF taken in
    order of descending responsibility; relabeling the groups therefore
    relabels the draws whenever the row values are distinct, while the
    marginal distribution of each draw is exactly categorical.
    """
    resp = np.asarray(responsibilities, dtype=np.float64)
    n, K = resp.shape
    u = rng.random(n)
    order = np.argsort(-resp, axis=1, kind="stable")
    sorted_resp = np.take_along_axis(resp, order, axis=1)
    cdf = np.cumsum(sorted_resp, axis=1)
    cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)
    pos = (u[:, None] > cdf).sum(axis=1)
    return order[np.arange(n), pos] + 1


def m_step(ytilde: np.ndarray, dataset: Dataset, labels: np.ndarray, n_groups: int,
           lambda_floor: float = LAMBDA_FLOOR, min_group: int = None,
           ridge: float = MNLOGIT_RIDGE) -> ModelParams:
    """Maximize the complete-data objective at fixed labels.

    Raises DegenerateGroupError when a group has fewer than `min_group`
    members (default p+2) or its exposure design is rank deficient, so the
    driver can redraw the offending S-step.
    """
    labels = np.asarray(labels, dtype=int)
    p1 = dataset.exposures.shape[1]
    if min_group is None:
        min_group = p1 + 1
    stage1 = np.hstack([dataset.sites, dataset.controls])
    fit1 = mvls_fit(stage1, ytilde, lambda_floor)
    S = dataset.n_sites
    theta_gamma = fit1.coef[:S]
    theta_eta = fit1.coef[S:]
    resid = ytilde - stage1 @ fit1.coef

    L = ytilde.shape[1]
    theta_alpha = np.empty((n_groups, p1, L))
    resid2 = np.empty_like(resid)
    for k in range(1, n_groups + 1):
        rows = labels == k
        if rows.sum() < min_group:
            raise DegenerateGroupError(k, f"{int(rows.sum())} members < {min_group}")
        try:
            fitk = mvls_fit(dataset.exposures[rows], resid[rows], lambda_floor)
        except ValueError as exc:
            raise DegenerateGroupError(k, str(exc)) from exc
        theta_alpha[k - 1] = fitk.coef
        resid2[rows] = resid[rows] - dataset.exposures[rows] @ fitk.coef
    lam = np.maximum(np.mean(resid2 ** 2, axis=0), lambda_floor)
    w = mnlogit_fit(augment(dataset.controls), labels, n_groups, ridge)
    return ModelParams(theta_alpha=theta_alpha, theta_eta=theta_eta,
                       theta_gamma=theta_gamma, lam=lam, w=w)


def q_value(ytilde: np.ndarray, dataset: Dataset, labels: np.ndarray,
            params: ModelParams) -> float:
    """Complete-data objective at the given labels and parameters."""
    labels = np.asarray(labels, dtype=int)
    n, L = ytilde.shape
    mean = dataset.controls @ params.theta_eta + dataset.sites @ params.theta_gamma
    for k in range(1, params.n_groups + 1):
        rows = labels == k
        if rows.any():
            mean[rows] += dataset.exposures[rows] @ params.theta_alpha[k - 1]
    resid = ytilde - mean
    lam = params.lam
    gauss = -0.5 * (n * np.sum(np.log(2.0 * np.pi * lam)) + ((resid ** 2) / lam).sum())
    logits = augment(dataset.controls) @ params.w.T
    logits -= logits.max(axis=1, keepdims=True)
    logprob = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    gate = logprob[np.arange(n), labels - 1].sum()
    return float(gauss + gate)


def _relative_range(values) -> float:
    values = np.asarray(values, dtype=float)
    spread = values.max() - values.min()
    return spread / max(1.0, abs(values.mean()))


def _run_replicate(ytilde, dataset, n_groups, config, seed_seq):
    rng = np.random.default_rng(seed_seq)
    n = ytilde.shape[0]
    if config.init_labels is not None:
        labels = np.asarray(config.init_labels, dtype=int).copy()
    else:
        labels = rng.integers(1, n_groups + 1, size=n)
    trace = []
    resp = None
    converged = False
    for _ in range(config.max_iter):
        params = None
        for attempt in range(MAX_REDRAWS + 1):
            try:
                params = m_step(ytilde, dataset, labels, n_groups,
                                config.lambda_floor, config.min_group, config.ridge)
                break
            except DegenerateGroupError as exc:
                if attempt == MAX_REDRAWS:
                    logger.warning("replicate failed: %s", exc)
                    return None
                labels = (rng.integers(1, n_groups + 1, size=n) if resp is None
                          else s_step(resp, rng))
        trace.append(q_value(ytilde, dataset, labels, params))
        resp = e_step(ytilde, dataset, params)
        labels = s_step(resp, rng)
        if len(trace) >= config.window and _relative_range(trace[-config.window:]) < config.tol:
            converged = True
            break
    return FitResult(params=params, responsibilities=resp, labels=labels,
                     q_trace=np.array(trace), converged=converged,
                     seed=config.seed, iterations=len(trace))


@_blas.single_thread
def fit_sem(dataset: Dataset, basis: BasisSystem, n_groups: int,
            config: SemConfig = None) -> FitResult:
    """Fit the latent-subgroup model by stochastic EM with restarts.

    Parameters
    ----------
    dataset : Dataset
    basis : BasisSystem
        Spatial basis used to project the images.
    n_groups : int
        Number of latent subgroups K (>= 1).
    config : SemConfig

    Returns
    -------
    FitResult
        The replicate with the highest final Q. Labels come from that
        replicate's final S-step draw; responsibilities from the E-step at
        the returned parameters. Reruns with the same seed and config are
        bit-identical, whatever `config.threads` and OPENBLAS_NUM_THREADS.

    Notes
    -----
    The whole fit, projection included, runs with the bundled OpenBLAS pools
    pinned to one thread; the caller's pool sizes are restored on return.
    The pools are process-wide, so BLAS calls made by other threads during
    the fit also run single-threaded. `build_basis`, `infer_maps` and a bare
    `project` keep the caller's pool.
    """
    config = config or SemConfig()
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    ytilde = project(dataset.images, basis)

    if n_groups == 1:
        labels = np.ones(dataset.n, dtype=int)
        params = m_step(ytilde, dataset, labels, 1,
                        config.lambda_floor, config.min_group, config.ridge)
        q = q_value(ytilde, dataset, labels, params)
        return FitResult(params=params, responsibilities=np.ones((dataset.n, 1)),
                         labels=labels, q_trace=np.array([q]), converged=True,
                         seed=config.seed, iterations=1)

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    run = lambda i: _run_replicate(ytilde, dataset, n_groups, config, seeds[i])
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run, range(config.restarts)))
    else:
        results = [run(i) for i in range(config.restarts)]

    best, best_idx = None, -1
    for i, res in enumerate(results):
        if res is None:
            continue
        if best is None or res.q_trace[-1] > best.q_trace[-1]:
            best, best_idx = res, i
    if best is None:
        raise RuntimeError("no viable fit: all replicates failed")
    best.replicate = best_idx
    return best
