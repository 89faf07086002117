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

The restarts run in stacks: `fit_problem` deals them into `SemConfig.threads`
stacks, run at once on a thread each (a lone stack on the calling thread;
`select_k` runs each candidate as one stack below `selection.THREADED_N`
subjects, whatever `threads`), and each iteration of a stack makes one call
each to `m_step` (stage 2 and the gating Newton fit, both batched),
`q_value`, `e_step` and `s_step` for all of its live replicates; the
M-step's log prior is read by both Q and the E-step. `e_step` and `q_value`
take the Problem and the M-step's parameters on it, and nothing else: the
residuals come from stage 1 and the RSS from stage 2, never from a second,
dense form of the model (the tests keep that form as their reference). A
replicate leaves its stack when it converges or fails. Every product is
taken per replicate (`np.matmul` over the stack axis, with the operand
shapes and layouts of a lone replicate), and each replicate draws from its
own Generator, so a replicate's bits do not depend on its stack: the result
does not depend on `threads`, and the step functions' one-replicate forms
are stacks of one.

`predict_from_sums` solves the same two stages, without subgroups, from the
Gram G and cross sums C of the design rows Z = [D | X], D the sites and
controls and X the exposures: the holdout validation's fits, whose training
sums are totals downdated by the held-out rows, one stack per subgroup for
all of a block of splits, solved together. Stage 1 and stage 2 are the two
block rows of one block-lower-triangular system, L = [[G_DD, 0], [G_XD,
G_XX]], so a stack's predictions Z_t L^-1 C take one batched solve. A site
without training rows takes a unit row of the Gram and coefficient 0, so
every item of a stack has the same columns. A fit fails with ValueError for
a rank-deficient stage-1 design, then with DegenerateGroupError when the
exposures fail `check_group`, then with numpy's LinAlgError (a ValueError)
when L is singular in floating point; the validation applies one rule to
all three: the subgroup's held-out individuals are predicted by the fit on
all training rows.
Stage 2 and `predict_from_sums` screen every design by the eigenvalues of its
Gram (`rank_clear`), so the SVD of the rank rule runs only on the few designs
the screen does not clear.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .linmodel import (LAMBDA_FLOOR, augment, check_design, log_gating, mnlogit_fit, mvls_fit,
                       row_cumsum, row_max, row_sum)
from .projection import projected

logger = logging.getLogger(__name__)

MAX_REDRAWS = 10
CLEAR_CONDITION = 1e-8  # Gram eigenvalue ratio above which `rank_clear` passes a design
WINDOW = 5  # trailing iterations whose Q range decides convergence


class DegenerateGroupError(RuntimeError):
    """Raised by `check_group` when a group is too small or its design
    collapses, and by `stage2` when its exposure Gram is singular.

    `row` is the first failing row of a stack of labelings (see `stage2`);
    for one labeling it is 0.
    """

    def __init__(self, group: int, why: str):
        self.group = group
        self.row = 0
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


def check_labels(labels, n: int, n_groups: int, name: str, stacked: bool = False) -> np.ndarray:
    """`labels` as an int array; ValueError naming `name` unless they have
    shape (n,), or (A, n) when `stacked`, and integer values in
    1..`n_groups`, naming the first value that is not. `fit_problem` checks
    `SemConfig.init_labels` with it and `m_step` its labels."""
    labels = np.asarray(labels)
    if labels.shape != (n,) and not (stacked and labels.ndim == 2 and labels.shape[1] == n):
        raise ValueError(f"{name} must have shape ({n},){f' or (A, {n})' if stacked else ''}, "
                         f"got {labels.shape}")
    if labels.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be integers in 1..{n_groups}, got dtype {labels.dtype}")
    bad = np.flatnonzero((labels < 1) | (labels > n_groups) | (labels != np.round(labels)))
    if bad.size:
        raise ValueError(f"{name} must be integers in 1..{n_groups}, "
                         f"got {labels.flat[bad[0]].item()!r}")
    return labels.astype(int, copy=False)


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
                  M-step was given, or None; `q_value` reads its Gaussian
                  term from them
    log_prior   : (n, K) gating log probabilities `log_gating(w, F)` of the
                  Problem the M-step was given, as the gating fit formed
                  them (`mnlogit_fit`), or None; `q_value` and `e_step` read
                  them when set

    The M-step on a stack of A labelings returns stacked parameters:
    theta_alpha, lam, w, rss and log_prior gain a leading axis A, while
    theta_eta and theta_gamma, which do not depend on the labels, are shared.
    """

    theta_alpha: np.ndarray
    theta_eta: np.ndarray
    theta_gamma: np.ndarray
    lam: np.ndarray
    w: np.ndarray
    rss: np.ndarray = field(default=None, repr=False)
    log_prior: np.ndarray = field(default=None, repr=False)

    @property
    def n_groups(self) -> int:
        return self.theta_alpha.shape[-3]


@dataclass
class SemConfig:
    """Knobs for `fit_sem`.

    max_iter / tol : stop when the relative range of Q over the trailing
        `WINDOW` iterations (all of them when `max_iter` is shorter) is
        below `tol`, or at `max_iter`.
    restarts : number of independent replicates; the highest final Q wins.
    seed : master seed; replicate streams are spawned deterministically.
    threads : number of replicate stacks run at once (>= 1). The
        replicates are dealt into this many stacks, each advanced by one
        call per EM step on a thread of its own; a lone stack runs on the
        calling thread. `select_k` reads `threads` only for datasets of at
        least `selection.THREADED_N` subjects and otherwise runs each
        candidate's replicates as one stack on the calling thread. `fit_sem`
        pins numpy's process-wide OpenBLAS pool to one thread, so besides these
        threads the fit's only parallelism is the projection of its images:
        a pass of at least `_blas.PARALLEL_VALUES` image values runs on the allowed CPUs, with bits
        that do not depend on the thread count. Every product is taken per
        replicate, so results do not depend on `threads`, on how the
        replicates are stacked, or on OPENBLAS_NUM_THREADS.
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
    """Outcome of a fit: parameters, soft and hard assignments, Q trace.

    `basis` is the identity (`BasisSystem.identity`) of the basis the fit
    was made on, when recorded: `lasir fit` and `lasir select` store it in
    the fit bundle, and `check_basis` compares it with a given basis.
    """

    params: ModelParams
    responsibilities: np.ndarray
    labels: np.ndarray
    q_trace: np.ndarray
    converged: bool
    seed: int
    iterations: int
    method: str = "lasir"
    replicate: int = 0
    basis: dict = None
    n_groups: int = field(init=False)

    def __post_init__(self):
        self.n_groups = self.params.n_groups


def check_fit(fit: FitResult, dataset: Dataset) -> None:
    """Raise ValueError, naming both counts, unless `fit` has one label per
    individual of `dataset`."""
    if len(fit.labels) != dataset.n:
        raise ValueError(f"the fit has labels for {len(fit.labels)} individuals, "
                         f"the dataset has {dataset.n}")


def check_basis(fit: FitResult, basis: BasisSystem) -> None:
    """Raise ValueError unless `fit` can have been made on `basis`: naming
    both counts when the fit does not have one coefficient per basis
    function, and naming both bases when the fit records the basis it was
    made on (`FitResult.basis`) and that record is not `basis.identity()`.
    A fit without a record is checked by its coefficient count alone."""
    if fit.params.lam.size != basis.L:
        raise ValueError(f"the fit has {fit.params.lam.size} basis coefficients, "
                         f"the basis has {basis.L}")
    if fit.basis is not None and fit.basis != basis.identity():
        def describe(record):
            return " ".join(f"{key}={value[:16] if key == 'sha256' else value}"
                            for key, value in record.items())
        raise ValueError(f"the fit was made on the basis {describe(fit.basis)}, "
                         f"not on the given basis {describe(basis.identity())}")


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
    members or a rank-deficient exposure design, or when its Gram, which
    that rule can pass, is singular in floating point: the sign of
    `np.linalg.slogdet`, from the LU that the solve runs, is 0 exactly
    where the solve would raise. A group that `rank_clear` clears from its
    Gram passes both for certain, so only the other groups take
    `check_group`'s SVD and the LU.

    `labels` may be a stack (A, n) of labelings; theta_alpha is then
    (A, K, p+1, L) and RSS (A, L), each replicate's from products of its own,
    so its bits are those of the call on it alone. When replicates fail
    `check_group`, the first one's error is raised, with its row as `row`.
    """
    X, R = problem.exposures, problem.resid
    stack = np.atleast_2d(labels)
    if not stack.shape[1]:  # no individuals: group 1 is the first to fail
        check_group(X, 1)
    p1 = X.shape[1]
    order = np.argsort((stack[:, :, None] == np.arange(1, n_groups + 1)).argmax(axis=1), axis=1)
    inverse = np.argsort(order, axis=1)
    inside = stack[:, :, None] == order[:, None, :] + 1  # (A, n, K), canonical order
    xw = np.repeat(inside, p1, axis=2) * np.tile(X, n_groups)
    shape = (len(stack), n_groups, p1, -1)
    gram = (np.swapaxes(xw, 1, 2) @ X).reshape(shape)
    clear = rank_clear(gram, inside.sum(axis=1), p1 + 1)
    for row, members in enumerate(stack):
        try:
            for k in np.flatnonzero(~clear[row, inverse[row]]) + 1:
                check_group(X[members == k], int(k))
                if np.linalg.slogdet(gram[row, inverse[row, k - 1]])[0] == 0:
                    raise DegenerateGroupError(int(k), "exposure Gram singular in floating point")
        except DegenerateGroupError as exc:
            exc.row = row
            raise
    cross = (np.swapaxes(xw, 1, 2) @ R).reshape(shape)
    theta = np.linalg.solve(gram, cross)
    rss = np.maximum(problem.resid_sumsq - (theta * cross).sum(axis=2).sum(axis=1), 0.0)
    theta = theta[np.arange(len(stack))[:, None], inverse]
    return (theta, rss) if labels.ndim == 2 else (theta[0], rss[0])


def rank_clear(gram: np.ndarray, count, need: int) -> np.ndarray:
    """Where the rank rule surely passes, from Grams alone: True where a
    design of `count` rows, with Gram `gram` (..., c, c), has at least `need`
    rows and Gram eigenvalues within a factor `CLEAR_CONDITION` of each other.
    Its singular values are then within the square root of that factor, far
    inside `linmodel.RANK_TOL`, rounding of the Gram included, so it passes
    `check_design` (with `need` = c) and `check_group` (with `need` = p+2) for
    certain; where False, their SVD decides. `count` and `need` may be
    arrays that broadcast against the stack of Grams, one per item. Stage 2
    and `predict_from_sums` screen every design with it."""
    eig = np.linalg.eigvalsh(gram)
    return (count >= need) & (eig[..., 0] > CLEAR_CONDITION * eig[..., -1])


def predict_from_sums(gram, cross, train, test, n_sites, n_exposures, group=1):
    """Predictions of the no-subgroup two-stage fit, from sufficient statistics.

    The design rows are Z = [sites | controls | exposures] (S, q and p+1
    columns). `train` (t, S+q+p+1) holds the fitted rows, which are read only
    for the checks below; `gram` = Z^T Z and `cross` = Z^T ytilde
    (S+q+p+1, L) are their sums, e.g. totals downdated by the held-out rows.
    Stage 1 regresses ytilde on D = [sites | controls], stage 2 the stage-1
    residuals on the exposures X; with G and C split into the D and X
    blocks, the two stages are the block rows of

        L = [[G_DD, 0], [G_XD, G_XX]],

    and the predictions for the rows `test` Z_t = [D_t | X_t] (m, S+q+p+1)
    are Z_t L^-1 C = [(D_t - X_t G_XX^-1 G_XD) G_DD^-1, X_t G_XX^-1] C: one
    solve of the size of the design, no residual matrix. Returns (m, L).
    A site with no training rows, a zero on the Gram's diagonal (a row
    count, so exact), has its row and column of G and its row of C set to
    0 and its diagonal to 1: it gets coefficient 0 and its test rows no site
    effect, as when its column is dropped from D.

    Raises ValueError when the stage-1 training design of the sites present
    and the controls is empty or rank deficient (as `prepare` does), then
    DegenerateGroupError naming `group` when `train`'s exposure rows fail
    `check_group` (as `stage2` does). Both rules are screened by
    `rank_clear` on the Gram blocks, whose unit rows leave a clear D block
    clear without them; `check_design`'s and `check_group`'s SVDs run only
    where it is not clear. A design that passes them can still leave G_DD or
    G_XX, and so L, singular in floating point; the solve then raises
    numpy's LinAlgError, a ValueError.

    Stacked fits -- `gram` (B, c, c), `cross` (B, c, L), `train` (B, t, c)
    and `test` (B, m, c), e.g. every holdout split of one subgroup -- return
    (pred (B, m, L), errors), where `errors` maps each item whose fit cannot
    be solved to the error the item alone raises; its rows of `pred` are
    left unset. The items that pass the checks are solved together, by one
    batched solve and one product taken per item (`np.matmul` over the
    stack axis) with the operand shapes and transpositions of a lone fit,
    so every item's predictions are bit-identical to the 2-D call on it.
    When the batched solve meets a singular L, the items are solved one at
    a time, so only the singular ones fail.
    """
    if gram.ndim == 2:
        pred, errors = predict_from_sums(gram[None], cross[None], train[None], test[None],
                                         n_sites, n_exposures, group)
        if errors:
            raise errors[0]
        return pred[0]
    width = gram.shape[-1]
    d, x = slice(0, width - n_exposures), slice(width - n_exposures, width)
    count = train.shape[1]
    # a site without training rows: its Gram and cross-sum rows are sums over
    # no rows (rounding residue, for a downdated total); a unit row gives it
    # coefficient 0, as dropping its column would
    absent = np.diagonal(gram, axis1=1, axis2=2)[:, d] == 0
    absent[:, n_sites:] = False  # a control without values is left to the rank rule
    if absent.any():
        items, sites = np.nonzero(absent)
        gram, cross = gram.copy(), cross.copy()
        gram[items, sites], gram[items, :, sites], cross[items, sites] = 0.0, 0.0, 0.0
        gram[items, sites, sites] = 1.0
    present = ~absent
    d_clear = rank_clear(gram[:, d, d], count, np.maximum(present.sum(axis=1), 1))
    x_clear = rank_clear(gram[:, x, x], count, n_exposures + 1)
    pred = np.empty((len(gram), test.shape[1], cross.shape[-1]))
    errors = {}
    for item in np.flatnonzero(~(d_clear & x_clear)):
        try:
            if not d_clear[item]:
                check_design(train[item][:, d][:, present[item]])
            if not x_clear[item]:
                check_group(train[item][:, x], group)
        except (ValueError, DegenerateGroupError) as exc:
            errors[int(item)] = exc
    ok = np.setdiff1d(np.arange(len(gram)), list(errors))
    try:
        pred[ok] = _solve_stack(gram[ok], test[ok], cross[ok], d, x)
    except np.linalg.LinAlgError:
        # a design the rank rule passes can still leave a numerically
        # singular Gram; such an item fails alone, as a lone fit does
        for item in ok:
            one = slice(item, item + 1)
            try:
                pred[item] = _solve_stack(gram[one], test[one], cross[one], d, x)[0]
            except np.linalg.LinAlgError as exc:
                errors[int(item)] = exc
    return pred, errors


def _solve_stack(gram, test, cross, d, x):
    """The two-stage predictions Z_t L^-1 C of `predict_from_sums` for a
    stack of Grams G `gram` (B, c, c), held-out rows Z_t `test` (B, m, c)
    and cross sums C `cross` (B, c, L); `d` and `x` slice the stage-1 and
    exposure columns. G is symmetric, so G with its (exposure rows, stage-1
    columns) block zeroed is L^T: one batched solve of L^T against Z_t^T,
    then one product with C. Raises LinAlgError when L is singular in
    floating point: the exposure rows of L^T are zero in the stage-1
    columns, so its LU pivots on G_DD's rows there and on G_XX after."""
    upper = gram.copy()
    upper[:, x, d] = 0.0
    return np.swapaxes(np.linalg.solve(upper, np.swapaxes(test, 1, 2)), 1, 2) @ cross


def _log_density(resid, resid_sq, exposures, params) -> np.ndarray:
    """Diagonal-Gaussian log density (n, K) of each individual under each
    group, from the residuals `resid` (n, L) of the shared site and control
    effects and their squares, by expanding the squared Mahalanobis
    distance around the group means exposures @ theta_k: the two group
    terms are x_i (G_k x_i^T - 2 c_ik), with G_k = theta_k Lambda^-1
    theta_k^T and c_ik = theta_k Lambda^-1 R_i^T, from small matmuls.
    Stacked `params` give (A, n, K), from per-replicate products."""
    theta, lam = params.theta_alpha, params.lam
    *stack, K, p1, L = theta.shape
    scaled = theta / lam[..., None, None, :]
    cross = np.swapaxes(scaled.reshape(*stack, K * p1, L) @ resid.T, -1, -2)
    gram = scaled @ np.swapaxes(theta, -1, -2)
    terms = np.swapaxes(exposures @ gram, -2, -3) - 2.0 * cross.reshape(*stack, -1, K, p1)
    maha = resid_sq @ (1.0 / lam)[..., None] + (terms @ exposures[:, :, None])[..., 0]
    return -0.5 * (np.sum(np.log(2.0 * np.pi * lam), axis=-1)[..., None, None] + maha)


def e_step(problem: Problem, params: ModelParams) -> np.ndarray:
    """Posterior responsibilities (n, K) on `problem`; rows sum to 1.

    Computed in log space with per-row max subtraction: log prior from the
    gating model plus the sum of univariate normal log densities with
    variances `lam`. The residuals of the site and control effects are the
    Problem's stage-1 residuals, so `params` must share its stage-1 fit, as
    the M-step's on it do; the log prior is `params.log_prior` when set,
    else `log_gating` of `params.w`. Stacked `params` (see `ModelParams`)
    give a stack (A, n, K).
    """
    resid, exposures = problem.resid, problem.exposures
    log_prior = params.log_prior
    if log_prior is None:
        log_prior = log_gating(params.w, problem.gating)
    with np.errstate(invalid="ignore"):  # inf * 0 in a bad row; reported below
        lp = log_prior + _log_density(resid, problem.resid_sq, exposures, params)
    if not np.all(np.isfinite(lp)):
        *row, i, k = np.argwhere(~np.isfinite(lp))[0]
        theta, lam = params.theta_alpha[tuple(row)], params.lam[tuple(row)]
        direct = (resid[i] - exposures[i] @ theta[k]) ** 2 / lam
        bad = np.argwhere(~np.isfinite(direct)).ravel()
        coord = int(bad[0]) if bad.size else -1
        raise ValueError(f"non-finite log-density for individual {int(i)}, "
                         f"group {int(k) + 1}, coordinate {coord}")
    lp -= row_max(lp)
    resp = np.exp(lp)
    resp /= row_sum(resp)
    return resp


def s_step(responsibilities: np.ndarray, rng) -> np.ndarray:
    """Draw hard labels (1..K) from the responsibility rows.

    One uniform variate per individual, inverted through the CDF taken in
    order of descending responsibility; relabeling the groups therefore
    relabels the draws whenever the row values are distinct, while the
    marginal distribution of each draw is exactly categorical.

    `responsibilities` (n, K) draw from the Generator `rng`; a stack
    (A, n, K) draws replicate a's labels (A, n) from `rng[a]`, a sequence of
    A Generators, each taking the variates a lone call would take.
    """
    resp = np.asarray(responsibilities, dtype=np.float64)
    n = resp.shape[-2]
    u = rng.random(n) if resp.ndim == 2 else np.stack([gen.random(n) for gen in rng])
    order = np.argsort(-resp, axis=-1, kind="stable")
    cdf = row_cumsum(np.take_along_axis(resp, order, axis=-1))
    cdf[..., -1] = np.maximum(cdf[..., -1], 1.0)
    pos = np.zeros(u.shape, dtype=np.intp)
    for k in range(cdf.shape[-1]):
        pos += u > cdf[..., k]
    return np.take_along_axis(order, pos[..., None], axis=-1)[..., 0] + 1


def m_step(ytilde, dataset: Dataset, labels: np.ndarray, n_groups: int,
           w_init: np.ndarray = None) -> ModelParams:
    """Maximize the complete-data objective at fixed labels.

    `ytilde` is the projected outcomes (n, L), whose stage 1 is then solved
    here, or a prepared `Problem` (then `dataset` is not read), which
    `e_step` and `q_value` then take with the parameters returned. `w_init`
    warm-starts the gating fit. The noise variances are floored at
    `linmodel.LAMBDA_FLOOR`. Raises ValueError from `check_labels` unless
    the labels have shape (n,) or (A, n) and integer values in 1..K, then
    DegenerateGroupError when a group fails `check_group`, so `_run_stack`
    can redraw the offending S-step.

    `labels` may be a stack (A, n) of labelings, with `w_init` (A, K, q+1);
    the parameters are then stacked (see `ModelParams`), and each
    replicate's equal those of the call on it alone. A stack's
    DegenerateGroupError names its first failing row as `row` (see `stage2`).
    """
    problem = ytilde if isinstance(ytilde, Problem) else prepare(ytilde, dataset)
    labels = check_labels(labels, problem.n, n_groups, "labels", stacked=True)
    theta_alpha, rss = stage2(problem, labels, n_groups)
    lam = np.maximum(rss / problem.n, LAMBDA_FLOOR)
    w, log_prior = mnlogit_fit(problem.gating, labels, n_groups, init=w_init)
    S = problem.coef.shape[0] - (problem.gating.shape[1] - 1)
    return ModelParams(theta_alpha=theta_alpha, theta_eta=problem.coef[S:],
                       theta_gamma=problem.coef[:S], lam=lam, w=w, rss=rss,
                       log_prior=log_prior)


def q_value(problem: Problem, labels: np.ndarray, params: ModelParams) -> float:
    """Complete-data objective on `problem` at the given labels and parameters.

    `params` must be the M-step's on `problem` at these labels: the Gaussian
    term comes from their residual sums of squares `rss` and `lam`, the
    gating term from their `log_prior` when set, else from `log_gating` of
    their `w`. A stack of labelings (A, n) with the stacked `params` of the
    M-step on them gives the A values as an array. Params without `rss`,
    such as a loaded fit's, raise ValueError.
    """
    if params.rss is None:
        raise ValueError("params have no rss: Q needs the residual sums of squares of "
                         "the M-step on the Problem at these labels")
    labels = np.asarray(labels, dtype=int)
    log_prior = params.log_prior
    if log_prior is None:
        log_prior = log_gating(params.w, problem.gating)
    n = labels.shape[-1]
    lam = params.lam
    gauss = -0.5 * (n * np.sum(np.log(2.0 * np.pi * lam), axis=-1)
                    + np.sum(params.rss / lam, axis=-1))
    gate = np.take_along_axis(log_prior, (labels - 1)[..., None], axis=-1)[..., 0].sum(axis=-1)
    return float(gauss + gate) if labels.ndim == 1 else gauss + gate


def _relative_range(values) -> float:
    values = np.asarray(values, dtype=float)
    spread = values.max() - values.min()
    return spread / max(1.0, abs(values.mean()))


def _replicate(params: ModelParams, row: int) -> ModelParams:
    """Row `row` of stacked `params`, copied out of the stack."""
    return replace(params, **{name: getattr(params, name)[row].copy()
                              for name in ("theta_alpha", "lam", "w", "rss", "log_prior")})


def _run_stack(problem, n_groups, config, seeds):
    """Run the replicates seeded by `seeds` (SeedSequences) as one stack.

    Each iteration makes one call each to `m_step`, `q_value`, `e_step` and
    `s_step` for every replicate still in the stack. Each replicate draws
    from its own Generator, in the order it would draw alone: its initial
    labels, its redraws after a DegenerateGroupError (at most `MAX_REDRAWS`
    per iteration, then it fails with a "replicate failed" warning) and its
    S-steps. Each failing `m_step` call redraws or drops the one replicate
    its error names; a replicate whose every responsibility row puts 1 on
    one group (one-hot rows, say), so that every redraw would return its
    labels unchanged, is dropped at once, with the same warning. A
    replicate leaves the stack when it converges or fails.
    Returns one FitResult, or None for a failed replicate, per seed.
    """
    n = problem.n
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if config.init_labels is not None:
        labels = np.tile(np.asarray(config.init_labels, dtype=int), (len(rngs), 1))
    else:
        labels = np.stack([rng.integers(1, n_groups + 1, size=n) for rng in rngs])
    ids = np.arange(len(rngs))  # the replicate in each row of the stack
    traces = [[] for _ in rngs]
    results = [None] * len(rngs)
    w = resp = None
    window = min(WINDOW, config.max_iter)
    for iteration in range(config.max_iter):
        redraws = np.zeros(ids.size, dtype=int)
        while True:
            try:
                params = m_step(problem, None, labels, n_groups, w_init=w)
                break
            except DegenerateGroupError as exc:
                row, rng = exc.row, rngs[ids[exc.row]]
                # rows whose top responsibility is 1 (one-hot rows among them)
                # draw their top group whatever the variate: no redraw can help
                fixed = resp is not None and np.all(resp[row].max(axis=-1) == 1.0)
                if redraws[row] < MAX_REDRAWS and not fixed:
                    redraws[row] += 1
                    labels[row] = (rng.integers(1, n_groups + 1, size=n) if resp is None
                                   else s_step(resp[row], rng))
                    continue
                logger.warning("replicate failed: %s", exc)
                keep = np.arange(ids.size) != row
                ids, labels, redraws = ids[keep], labels[keep], redraws[keep]
                w = None if w is None else w[keep]
                resp = None if resp is None else resp[keep]
                if not ids.size:
                    return results
        q = q_value(problem, labels, params)
        resp = e_step(problem, params)
        labels = s_step(resp, [rngs[i] for i in ids])
        w = params.w
        keep = np.ones(ids.size, dtype=bool)
        for row, i in enumerate(ids):
            trace = traces[i]
            trace.append(float(q[row]))
            converged = bool(len(trace) >= window
                             and _relative_range(trace[-window:]) < config.tol)
            if converged or iteration == config.max_iter - 1:
                keep[row] = False
                results[i] = FitResult(params=_replicate(params, row),
                                       responsibilities=resp[row].copy(),
                                       labels=labels[row].copy(), q_trace=np.array(trace),
                                       converged=converged, seed=config.seed,
                                       iterations=len(trace))
        ids, labels, w, resp = ids[keep], labels[keep], w[keep], resp[keep]
        if not ids.size:
            break
    return results


@_blas.single_thread
def fit_sem(dataset: Dataset, basis: BasisSystem, n_groups: int,
            config: SemConfig = None) -> FitResult:
    """Fit the latent-subgroup model by stochastic EM with restarts.

    Parameters
    ----------
    dataset : Dataset
    basis : BasisSystem
        Spatial basis used to project the images; the projection is the
        dataset's record on the basis (`projection.projected`), made here
        if no earlier call on the same dataset and basis made it.
    n_groups : int
        Number of latent subgroups K, an integer >= 1, checked before the
        projection is read.
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
    The whole fit, projection included, runs with numpy's OpenBLAS pool
    pinned to one thread; the caller's pool size is restored on return.
    Its parallelism is Python threads: the replicate stacks, and a
    projection of at least `_blas.PARALLEL_VALUES` image values, run on the
    allowed CPUs; neither changes the bits.
    The pool is process-wide, so BLAS calls made by other threads during
    the fit also run single-threaded. `build_basis`, the Wald maps
    (`infer_maps`, `wald_map`, `svc_variance`, `coef_covariance`) and
    `simulate_cube` pin the pool the same way; only a bare `project`,
    `backproject` or read of a factored basis's `.psi` keeps the caller's
    pool size.
    """
    check_count(n_groups, "n_groups")
    problem = prepare(projected(dataset, basis).ytilde, dataset)
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
                     q_trace=np.array([q_value(problem, labels, params)]),
                     converged=True, seed=config.seed, iterations=1)


def fit_problem(problem: Problem, n_groups: int, config: SemConfig) -> FitResult:
    """`fit_sem` on a prepared problem, so that several fits (the candidates
    of `select_k`) share one projection and one stage 1.

    `n_groups` must be an integer >= 1 (`check_count`), else ValueError;
    `fit_sem` checks it before projecting. K=1 is the fit at one group of
    everyone, and `config.init_labels` is not read. For K >= 2, before any
    replicate starts, `config.init_labels` (if given) must have shape (n,)
    and integer values in 1..K, else ValueError. The replicates are dealt
    into `config.threads` stacks (`_blas.deal`), each run by `_run_stack` on
    a thread of its own; a lone stack runs on the calling thread.
    """
    check_count(n_groups, "n_groups")
    if n_groups == 1:
        return fit_at_labels(problem, np.ones(problem.n, dtype=int), 1, config)
    if config.init_labels is not None:
        check_labels(config.init_labels, problem.n, n_groups, "SemConfig.init_labels")

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    count = min(config.threads, config.restarts)
    dealt = _blas.deal(lambda stack: _run_stack(problem, n_groups, config, stack), seeds, count)
    results = [dealt[i % count][i // count] for i in range(config.restarts)]

    viable = [i for i, res in enumerate(results) if res is not None]
    if not viable:
        raise RuntimeError("no viable fit: all replicates failed")
    best = max(viable, key=lambda i: (results[i].q_trace[-1], -i))  # ties: first replicate
    results[best].replicate = best
    return results[best]
