"""Stochastic EM for the latent-subgroup image-on-scalar model.

Stage 1 of the M-step -- the projected outcomes regressed on site
indicators and controls jointly over all individuals -- does not depend on
the labels, so `prepare` solves it once per fit and keeps a `Problem`: the
projected outcomes, the stage-1 coefficients and residuals R, the exposure
design X and the augmented controls F of the gating model. Every step of
every replicate then reads from that one Problem. Each iteration, starting
from hard group labels:

* M-step -- stage 2 solves X_k^T X_k theta_k = C_k = X_k^T R_k for every
  group in one batched solve, with the Grams and cross sums of all groups
  from one product each; the diagonal noise variances are the pooled mean
  squared stage-2 residuals, whose per-coordinate sums come from the same
  sums, RSS = sum_i R_i^2 - sum_k <theta_k, C_k>, with sum_i R_i^2 cached
  on the Problem: no n x L residual pass, at an absolute error of
  O(eps * sum_i R_i^2) from the cancellation; stage 3 refits the gating
  weights by multinomial logit on the labels, warm-started from the
  previous iteration's weights.
* E-step -- posterior group responsibilities proportional to gating prior
  times the diagonal-Gaussian likelihood of the projected outcome, computed
  in log space; the log prior is `linmodel.log_gating`, the same
  log-softmax that Q, the simulator and the gating fit use. The squared
  Mahalanobis distances expand as
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

`predict_from_sums` solves the same two stages, without subgroups, from the
Gram and cross sums of the design rows: the holdout validation's fits, whose
training sums are totals downdated by the held-out rows. It raises ValueError
for a rank-deficient stage-1 design, then DegenerateGroupError when the
exposures fail `check_group`; the validation applies one rule to both: the
subgroup's held-out individuals are predicted by the fit on all training rows.
"""

from __future__ import annotations

import logging
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .linmodel import LAMBDA_FLOOR, augment, check_design, log_gating, mnlogit_fit, mvls_fit
from .projection import project

logger = logging.getLogger(__name__)

MAX_REDRAWS = 10
WINDOW = 5  # trailing iterations whose Q range decides convergence


class DegenerateGroupError(RuntimeError):
    """Raised by `check_group` when a group is too small or its design collapses."""

    def __init__(self, group: int, why: str):
        self.group = group
        super().__init__(f"degenerate group {group}: {why}")


def check_group(design: np.ndarray, group: int) -> None:
    """The one rule for whether a subgroup can be regressed on: raise
    DegenerateGroupError naming `group` unless its exposure rows `design`
    (m, p+1) number at least p+2 and have full column rank (`check_design`).
    Stage 2, the holdout predictions (`predict_from_sums`) and k-means'
    retries apply it. The holdout validation sends a subgroup that fails it,
    or whose stage-1 design is rank deficient, to the fit on all training
    rows."""
    count, need = design.shape[0], design.shape[1] + 1
    if count < need:
        raise DegenerateGroupError(group, f"{count} members < {need}")
    try:
        check_design(design)
    except ValueError as exc:
        raise DegenerateGroupError(group, str(exc)) from exc


def check_count(value, name: str, low: int = 1) -> None:
    """Raise ValueError naming `name` unless `value` is an integer
    (`numbers.Integral`, numpy integers included) of at least `low`."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


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

    max_iter / tol : stop when the relative range of Q over the trailing
        `WINDOW` iterations (all of them when `max_iter` is shorter) is
        below `tol`, or at `max_iter`.
    restarts : number of independent replicates; the highest final Q wins.
    seed : master seed; replicate streams are spawned deterministically.
    threads : size of the worker pool the replicates run on (>= 1).
        `fit_sem` pins the process-wide BLAS pools to one thread, so these
        threads are the fit's only parallelism and results do not depend on
        them or on OPENBLAS_NUM_THREADS.
    init_labels : optional explicit initial labels, shape (n,) with integer
        values 1..K, e.g. for warm starts or equivariance experiments;
        replaces the random draw in every replicate (`fit_problem` checks
        them; a K=1 fit does not read them).

    `max_iter`, `restarts` and `threads` must be integers >= 1 and `seed`
    an integer >= 0 (`check_count`, numpy integers included), and `tol`
    must be > 0, else ValueError naming the field.
    """

    max_iter: int = 200
    tol: float = 1e-4
    restarts: int = 10
    seed: int = 0
    threads: int = 1
    init_labels: np.ndarray = None

    def __post_init__(self):
        for name, low in (("max_iter", 1), ("restarts", 1), ("threads", 1), ("seed", 0)):
            check_count(getattr(self, name), f"SemConfig.{name}", low)
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


def check_fit(fit: FitResult, dataset: Dataset) -> None:
    """Raise ValueError, naming both counts, unless `fit` has one label per
    individual of `dataset`."""
    if len(fit.labels) != dataset.n:
        raise ValueError(f"the fit has labels for {len(fit.labels)} individuals, "
                         f"the dataset has {dataset.n}")


@dataclass(frozen=True)
class Problem:
    """One dataset's projected outcomes with the label-free stage 1 solved.

    Built by `prepare`, once per fit; the EM steps only read it, so the
    replicate threads share one instance.

    ytilde    : (n, L) projected outcomes
    coef      : (c, L) stage-1 coefficients, site columns first
    resid     : (n, L) stage-1 residuals R
    resid_sq  : (n, L) R ** 2, computed on first use
    resid_sumsq : (L,) column sums of R ** 2, computed on first use
    exposures : (n, p+1) exposure design X
    gating    : (n, q+1) augmented controls F of the gating model
    """

    ytilde: np.ndarray
    coef: np.ndarray
    resid: np.ndarray
    exposures: np.ndarray
    gating: np.ndarray

    @property
    def n(self) -> int:
        return self.ytilde.shape[0]

    @cached_property
    def resid_sq(self) -> np.ndarray:
        return self.resid * self.resid

    @cached_property
    def resid_sumsq(self) -> np.ndarray:
        return self.resid_sq.sum(axis=0)


def prepare(ytilde: np.ndarray, dataset: Dataset) -> Problem:
    """Solve stage 1 for the projected outcomes of `dataset`. Raises
    ValueError when the stage-1 design is rank deficient."""
    fit = mvls_fit(np.hstack([dataset.sites, dataset.controls]), ytilde)
    return Problem(ytilde=ytilde, coef=fit.coef, resid=fit.resid,
                   exposures=dataset.exposures, gating=augment(dataset.controls))


def stage2(problem: Problem, labels: np.ndarray, n_groups: int):
    """Per-group regression of the stage-1 residuals on the exposures, from sums.

    Returns (theta_alpha (K, p+1, L), rss (L,)): the coefficients solving
    X_k^T X_k theta_k = C_k = X_k^T R_k on each group's rows and the
    per-coordinate sums of squared stage-2 residuals over all individuals,

        RSS = sum_i R_i^2 - sum_k <theta_k, C_k>,

    clipped at 0, with sum_i R_i^2 cached on the Problem: no n x L residual
    matrix is formed. The cancellation leaves an absolute error of
    O(eps * sum_i R_i^2) per coordinate, so RSS is exact to a few digits
    fewer when the groups fit R almost exactly.

    The Grams and the C_k come from one product each with X_W, the
    exposures masked by group membership, and all groups are solved in one
    batched solve. The groups enter in a canonical order, by their first
    member, so renaming the labels permutes theta_alpha's rows and leaves
    every bit of theta and RSS unchanged. Raises DegenerateGroupError, from
    `check_group` applied in label order, when a group has fewer than p+2
    members or a rank-deficient exposure design.
    """
    X, R = problem.exposures, problem.resid
    first = []
    for k in range(1, n_groups + 1):
        rows = labels == k
        check_group(X[rows], k)
        first.append(rows.argmax())
    order = np.argsort(first)
    xw = ((labels[:, None] == order + 1)[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
    shape = (n_groups, X.shape[1], -1)
    cross = (xw.T @ R).reshape(shape)
    theta = np.linalg.solve((xw.T @ X).reshape(shape), cross)
    rss = np.maximum(problem.resid_sumsq - (theta * cross).sum(axis=1).sum(axis=0), 0.0)
    return theta[np.argsort(order)], rss


def predict_from_sums(gram, cross, train, test, n_sites, n_exposures, group=1):
    """Predictions of the no-subgroup two-stage fit, from sufficient statistics.

    The design rows are Z = [sites | controls | exposures] (S, q and p+1
    columns). `train` (t, S+q+p+1) holds the fitted rows, which are read only
    for the sites they contain and the checks below; `gram` = Z^T Z and
    `cross` = Z^T ytilde (S+q+p+1, L) are their sums, e.g. totals downdated by
    the held-out rows. Stage 1 regresses ytilde on D = [sites present in
    `train` | controls], stage 2 the stage-1 residuals on the exposures X;
    the predictions for the rows `test` (m, S+q+p+1) are

        [(D_t - X_t G_XX^-1 G_XD) G_DD^-1,  X_t G_XX^-1] [C_D; C_X]

    with G and C split into the D and X blocks: solves of the size of the
    design, no residual matrix. Returns (m, L).

    Raises ValueError when the stage-1 training design is rank deficient (as
    `prepare` does), then DegenerateGroupError naming `group` when `train`'s
    exposure rows fail `check_group` (as `stage2` does).
    """
    width = gram.shape[0]
    x_cols = slice(width - n_exposures, width)
    d_cols = np.concatenate([np.flatnonzero(train[:, :n_sites].any(axis=0)),
                             np.arange(n_sites, width - n_exposures)])
    check_design(train[:, d_cols])
    check_group(train[:, x_cols], group)
    x_part = np.linalg.solve(gram[x_cols, x_cols], test[:, x_cols].T).T
    d_part = test[:, d_cols] - x_part @ gram[x_cols, d_cols]
    d_part = np.linalg.solve(gram[np.ix_(d_cols, d_cols)], d_part.T).T
    return d_part @ cross[d_cols] + x_part @ cross[x_cols]


def _log_density(resid, resid_sq, exposures, params) -> np.ndarray:
    """Diagonal-Gaussian log density (n, K) of each individual under each
    group, from the residuals `resid` (n, L) of the shared site and control
    effects and their squares, by expanding the squared Mahalanobis
    distance around the group means exposures @ theta_k: the two group
    terms are x_i (G_k x_i^T - 2 c_ik), with G_k = theta_k Lambda^-1
    theta_k^T and c_ik = theta_k Lambda^-1 R_i^T, from small matmuls."""
    theta, lam = params.theta_alpha, params.lam
    K, p1, L = theta.shape
    scaled = theta / lam
    cross = (resid @ scaled.reshape(K * p1, L).T).reshape(-1, K, p1)
    gram = scaled @ theta.transpose(0, 2, 1)
    terms = (exposures @ gram).transpose(1, 0, 2) - 2.0 * cross  # (n, K, p+1)
    maha = (resid_sq @ (1.0 / lam))[:, None] + (terms @ exposures[:, :, None])[:, :, 0]
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
        lp = log_gating(params.w, features) + _log_density(resid, resid_sq, exposures, params)
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
           w_init: np.ndarray = None) -> ModelParams:
    """Maximize the complete-data objective at fixed labels.

    `ytilde` is the projected outcomes (n, L), whose stage 1 is then solved
    here, or a prepared `Problem` (then `dataset` is not read). `w_init`
    warm-starts the gating fit. The noise variances are floored at
    `linmodel.LAMBDA_FLOOR`. Raises DegenerateGroupError when a group fails
    `check_group`, so the driver can redraw the offending S-step.
    """
    problem = ytilde if isinstance(ytilde, Problem) else prepare(ytilde, dataset)
    labels = np.asarray(labels, dtype=int)
    theta_alpha, rss = stage2(problem, labels, n_groups)
    lam = np.maximum(rss / problem.n, LAMBDA_FLOOR)
    w = mnlogit_fit(problem.gating, labels, n_groups, init=w_init)
    S = problem.coef.shape[0] - (problem.gating.shape[1] - 1)
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
    gate = log_gating(params.w, features)[np.arange(n), labels - 1].sum()
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
    window = min(WINDOW, config.max_iter)
    for _ in range(config.max_iter):
        w_prev = None if params is None else params.w
        for attempt in range(MAX_REDRAWS + 1):
            try:
                params = m_step(problem, None, labels, n_groups, w_init=w_prev)
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
        if len(trace) >= window and _relative_range(trace[-window:]) < config.tol:
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
        Number of latent subgroups K, an integer >= 1, checked before the
        images are projected.
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
    the fit also run single-threaded. `build_basis`, `infer_maps` and
    `simulate_cube` pin the pools the same way; only a bare `project`,
    `backproject` or read of a factored basis's `.psi` keeps the caller's
    pool.
    """
    check_count(n_groups, "n_groups")
    problem = prepare(project(dataset.images, basis), dataset)
    return fit_problem(problem, n_groups, config or SemConfig())


def fit_at_labels(problem: Problem, labels: np.ndarray, n_groups: int,
                  config: SemConfig) -> FitResult:
    """The fit at fixed hard labels (1..K): one M-step and its Q, with the
    labels as 0/1 responsibilities. This is the K=1 fit and the k-means
    baseline's regression. Raises DegenerateGroupError as `m_step` does."""
    params = m_step(problem, None, labels, n_groups)
    resp = np.zeros((problem.n, n_groups))
    resp[np.arange(problem.n), labels - 1] = 1.0
    return FitResult(params=params, responsibilities=resp, labels=labels,
                     q_trace=np.array([q_value(problem, None, labels, params)]),
                     converged=True, seed=config.seed, iterations=1)


def fit_problem(problem: Problem, n_groups: int, config: SemConfig) -> FitResult:
    """`fit_sem` on a prepared problem, so that several fits (the candidates
    of `select_k`) share one projection and one stage 1.

    `n_groups` must be an integer >= 1 (`check_count`), else ValueError;
    `fit_sem` checks it before projecting. K=1 is the fit at one group of
    everyone, and `config.init_labels` is not read. For K >= 2, before any
    replicate starts, `config.init_labels` (if given) must have shape (n,)
    and integer values in 1..K, else ValueError.
    """
    check_count(n_groups, "n_groups")
    if n_groups == 1:
        return fit_at_labels(problem, np.ones(problem.n, dtype=int), 1, config)
    if config.init_labels is not None:
        init = np.asarray(config.init_labels)
        if init.shape != (problem.n,):
            raise ValueError(f"SemConfig.init_labels must have shape ({problem.n},), "
                             f"got {init.shape}")
        if not (init.dtype.kind in "iuf" and np.all(init == np.round(init))
                and init.min() >= 1 and init.max() <= n_groups):
            raise ValueError(f"SemConfig.init_labels must be integers in 1..{n_groups}")

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        results = list(pool.map(lambda seed: _run_replicate(problem, n_groups, config, seed),
                                seeds))

    viable = [i for i, res in enumerate(results) if res is not None]
    if not viable:
        raise RuntimeError("no viable fit: all replicates failed")
    best = max(viable, key=lambda i: (results[i].q_trace[-1], -i))  # ties: first replicate
    results[best].replicate = best
    return results[best]
