"""Stochastic EM for the latent-subgroup image-on-scalar model.

Stage 1 of the M-step -- the projected outcomes regressed on site
indicators and controls jointly over all individuals -- does not depend on
the labels, so `prepare` solves it once per fit and keeps a `Problem`: the
projected outcomes, the stage-1 coefficients and residuals R, the exposure
design X and the augmented controls F of the gating model. Every step of
every replicate then reads from that one Problem. Each iteration, starting
from hard group labels:

* M-step -- stage 2 solves X_k^T X_k theta_k = X_k^T R_k on each group's
  rows; the diagonal noise variances are the pooled mean squared stage-2
  residuals, whose per-coordinate sums (RSS) come from the same residual
  pass; stage 3 refits the gating weights by multinomial logit on the
  labels, warm-started from the previous iteration's weights.
* E-step -- posterior group responsibilities proportional to gating prior
  times the diagonal-Gaussian likelihood of the projected outcome, computed
  in log space. The squared Mahalanobis distances expand as
  sum_l R_il^2 / lam_l - 2 x_i (R_i / lam) theta_k^T + x_i theta_k
  Lambda^-1 theta_k^T x_i^T, so one (n x L)(L x K(p+1)) product replaces K
  passes over the n x L outcomes.
* S-step -- one categorical draw of labels per individual from the
  responsibilities.

The objective traced per iteration is the complete-data value

    Q = sum_i [ log f(ytilde_i | params, label_i) + log Pr(label_i | w, z_i) ]

evaluated at the labels entering the M-step and the parameters it produced;
its Gaussian part is -1/2 (n sum_l log(2 pi lam_l) + sum_l RSS_l / lam_l),
read from the M-step's RSS. Convergence is declared when the relative range
of Q over a trailing window falls below a tolerance. Runs restart from
independent random label initializations and the replicate with the highest
final Q wins.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .linmodel import (LAMBDA_FLOOR, MNLOGIT_RIDGE, augment, check_design,
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
    rss         : (L,) stage-2 residual sums of squares at the labels the
                  M-step was given, or None; `q_value` on a prepared
                  `Problem` reads its Gaussian term from them
    """

    theta_alpha: np.ndarray
    theta_eta: np.ndarray
    theta_gamma: np.ndarray
    lam: np.ndarray
    w: np.ndarray
    rss: np.ndarray = field(default=None, repr=False)

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


@dataclass(frozen=True)
class Problem:
    """One dataset's projected outcomes with the label-free stage 1 solved.

    Built by `prepare`, once per fit; the EM steps only read it, so the
    replicate threads share one instance.

    ytilde    : (n, L) projected outcomes
    coef      : (c, L) stage-1 coefficients, site columns first
    resid     : (n, L) stage-1 residuals R
    resid_sq  : (n, L) R ** 2, computed on first use (by the E-step)
    exposures : (n, p+1) exposure design X
    gating    : (n, q+1) augmented controls F of the gating model
    site_cols : (S,) bool, dataset site columns present in the stage-1 design
    """

    ytilde: np.ndarray
    coef: np.ndarray
    resid: np.ndarray
    exposures: np.ndarray
    gating: np.ndarray
    site_cols: np.ndarray

    @property
    def n(self) -> int:
        return self.ytilde.shape[0]

    @cached_property
    def resid_sq(self) -> np.ndarray:
        return self.resid * self.resid


def prepare(ytilde: np.ndarray, dataset: Dataset, rows=None) -> Problem:
    """Solve stage 1 for the projected outcomes of `dataset`.

    `rows` optionally restricts the problem to a subset of individuals (the
    training rows of a holdout split); site columns with no member among
    them are then left out of the stage-1 design. Raises ValueError when the
    stage-1 design is rank deficient.
    """
    sites, controls, exposures = dataset.sites, dataset.controls, dataset.exposures
    site_cols = np.ones(sites.shape[1], dtype=bool)
    if rows is not None:
        ytilde, sites, controls, exposures = (ytilde[rows], sites[rows], controls[rows],
                                              exposures[rows])
        site_cols = sites.any(axis=0)
        sites = sites[:, site_cols]
    fit = mvls_fit(np.hstack([sites, controls]), ytilde)
    return Problem(ytilde=ytilde, coef=fit.coef, resid=fit.resid, exposures=exposures,
                   gating=augment(controls), site_cols=site_cols)


def stage2(problem: Problem, labels: np.ndarray, n_groups: int, min_group: int):
    """Per-group regression of the stage-1 residuals on the exposures.

    Returns (theta_alpha (K, p+1, L), rss (L,)): the coefficients solving
    X_k^T X_k theta_k = X_k^T R_k on each group's rows and the per-coordinate
    sums of squared stage-2 residuals over all individuals. Raises
    DegenerateGroupError when a group has fewer than `min_group` members,
    fewer members than exposure columns, or a rank-deficient exposure design.
    """
    X, R = problem.exposures, problem.resid
    theta = np.empty((n_groups, X.shape[1], R.shape[1]))
    resid = np.empty_like(R)
    for k in range(1, n_groups + 1):
        rows = labels == k
        count = int(rows.sum())
        if count < min_group:
            raise DegenerateGroupError(k, f"{count} members < {min_group}")
        if count == len(labels):
            rows = slice(None)  # one group: views instead of copies
        Xk, Rk = X[rows], R[rows]
        try:
            check_design(Xk)
        except ValueError as exc:
            raise DegenerateGroupError(k, str(exc)) from exc
        theta[k - 1] = np.linalg.solve(Xk.T @ Xk, Xk.T @ Rk)
        resid[rows] = Rk - Xk @ theta[k - 1]
    return theta, (resid * resid).sum(axis=0)


def _log_gating(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Log class probabilities (n, K) of the gating model (log-softmax)."""
    logits = features @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def _log_density(resid, resid_sq, exposures, params) -> np.ndarray:
    """Diagonal-Gaussian log density (n, K) of each individual under each
    group, from the residuals `resid` (n, L) of the shared site and control
    effects and their squares, by expanding the squared Mahalanobis
    distance around the group means exposures @ theta_k."""
    theta, lam = params.theta_alpha, params.lam
    K, p1, L = theta.shape
    scaled = theta / lam
    cross = (resid @ scaled.reshape(K * p1, L).T).reshape(-1, K, p1)
    gram = scaled @ theta.transpose(0, 2, 1)  # theta_k Lambda^-1 theta_k^T
    maha = ((resid_sq @ (1.0 / lam))[:, None]
            - 2.0 * np.einsum("ij,ikj->ik", exposures, cross)
            + np.einsum("ij,kjm,im->ik", exposures, gram, exposures))
    return -0.5 * (np.sum(np.log(2.0 * np.pi * lam)) + maha)


def e_step(ytilde, dataset: Dataset, params: ModelParams) -> np.ndarray:
    """Posterior responsibilities (n, K); rows sum to 1.

    Computed in log space with per-row max subtraction: log prior from the
    gating model plus the sum of univariate normal log densities with
    variances `lam`. `ytilde` is the projected outcomes (n, L) or a
    prepared `Problem` whose stage-1 fit `params` came from (then `dataset`
    is not read).
    """
    if isinstance(ytilde, Problem):
        resid, resid_sq = ytilde.resid, ytilde.resid_sq
        exposures, features = ytilde.exposures, ytilde.gating
    else:
        resid = ytilde - dataset.controls @ params.theta_eta - dataset.sites @ params.theta_gamma
        resid_sq = resid * resid
        exposures, features = dataset.exposures, augment(dataset.controls)
    with np.errstate(invalid="ignore"):  # inf * 0 in a bad row; reported below
        lp = _log_gating(params.w, features) + _log_density(resid, resid_sq, exposures, params)
    if not np.all(np.isfinite(lp)):
        i, k = np.argwhere(~np.isfinite(lp))[0]
        direct = (resid[i] - exposures[i] @ params.theta_alpha[k]) ** 2 / params.lam
        bad = np.argwhere(~np.isfinite(direct)).ravel()
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


def m_step(ytilde, dataset: Dataset, labels: np.ndarray, n_groups: int,
           lambda_floor: float = LAMBDA_FLOOR, min_group: int = None,
           ridge: float = MNLOGIT_RIDGE, w_init: np.ndarray = None) -> ModelParams:
    """Maximize the complete-data objective at fixed labels.

    `ytilde` is the projected outcomes (n, L), whose stage 1 is then solved
    here, or a prepared `Problem` (then `dataset` is not read). `w_init`
    warm-starts the gating fit. Raises DegenerateGroupError when a group has
    fewer than `min_group` members (default p+2) or its exposure design is
    rank deficient, so the driver can redraw the offending S-step.
    """
    problem = ytilde if isinstance(ytilde, Problem) else prepare(ytilde, dataset)
    labels = np.asarray(labels, dtype=int)
    p1 = problem.exposures.shape[1]
    if min_group is None:
        min_group = p1 + 1
    theta_alpha, rss = stage2(problem, labels, n_groups, min_group)
    lam = np.maximum(rss / problem.n, lambda_floor)
    w = mnlogit_fit(problem.gating, labels, n_groups, ridge, init=w_init)
    S = int(problem.site_cols.sum())
    return ModelParams(theta_alpha=theta_alpha, theta_eta=problem.coef[S:],
                       theta_gamma=problem.coef[:S], lam=lam, w=w, rss=rss)


def q_value(ytilde, dataset: Dataset, labels: np.ndarray, params: ModelParams) -> float:
    """Complete-data objective at the given labels and parameters.

    `ytilde` is the projected outcomes (n, L) or a prepared `Problem`. With
    a Problem, `params` must be the M-step's on it at these labels: the
    Gaussian term then comes from their residual sums of squares and
    `dataset` is not read.
    """
    labels = np.asarray(labels, dtype=int)
    if isinstance(ytilde, Problem):
        rss, features = params.rss, ytilde.gating
    else:
        mean = (dataset.controls @ params.theta_eta + dataset.sites @ params.theta_gamma
                + np.einsum("ij,ijl->il", dataset.exposures, params.theta_alpha[labels - 1]))
        rss = ((ytilde - mean) ** 2).sum(axis=0)
        features = augment(dataset.controls)
    n = labels.shape[0]
    lam = params.lam
    gauss = -0.5 * (n * np.sum(np.log(2.0 * np.pi * lam)) + np.sum(rss / lam))
    gate = _log_gating(params.w, features)[np.arange(n), labels - 1].sum()
    return float(gauss + gate)


def _relative_range(values) -> float:
    values = np.asarray(values, dtype=float)
    spread = values.max() - values.min()
    return spread / max(1.0, abs(values.mean()))


def _run_replicate(problem, n_groups, config, seed_seq):
    rng = np.random.default_rng(seed_seq)
    n = problem.n
    if config.init_labels is not None:
        labels = np.asarray(config.init_labels, dtype=int).copy()
    else:
        labels = rng.integers(1, n_groups + 1, size=n)
    trace = []
    resp = None
    converged = False
    params = None
    for _ in range(config.max_iter):
        w_prev = None if params is None else params.w
        for attempt in range(MAX_REDRAWS + 1):
            try:
                params = m_step(problem, None, labels, n_groups, config.lambda_floor,
                                config.min_group, config.ridge, w_prev)
                break
            except DegenerateGroupError as exc:
                if attempt == MAX_REDRAWS:
                    logger.warning("replicate failed: %s", exc)
                    return None
                labels = (rng.integers(1, n_groups + 1, size=n) if resp is None
                          else s_step(resp, rng))
        trace.append(q_value(problem, None, labels, params))
        resp = e_step(problem, None, params)
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
    problem = prepare(project(dataset.images, basis), dataset)
    return fit_problem(problem, n_groups, config or SemConfig())


def fit_problem(problem: Problem, n_groups: int, config: SemConfig) -> FitResult:
    """`fit_sem` on a prepared problem, so that several fits (the candidates
    of `select_k`) share one projection and one stage 1."""
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    if n_groups == 1:
        labels = np.ones(problem.n, dtype=int)
        params = m_step(problem, None, labels, 1,
                        config.lambda_floor, config.min_group, config.ridge)
        q = q_value(problem, None, labels, params)
        return FitResult(params=params, responsibilities=np.ones((problem.n, 1)),
                         labels=labels, q_trace=np.array([q]), converged=True,
                         seed=config.seed, iterations=1)

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    run = lambda i: _run_replicate(problem, n_groups, config, seeds[i])
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
