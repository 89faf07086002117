"""Regression primitives used by the EM engine and the baselines.

* `mvls_fit` -- multivariate least squares with a shared design and many
  target columns, plus per-column residual variances (a diagonal Gaussian
  model); the label-free stage 1 of the M-step.
* `solve_upper` -- the solve with an upper-triangular factor that stage 1
  and the basis's CholeskyQR2 share.
* `check_design` -- the size and rank test that `mvls_fit` and the M-step's
  per-group stage 2 apply to a design before solving.
* `log_gating` -- log class probabilities of the multinomial-logit gating
  model, a log-softmax with max subtraction: the one normalization of the
  gating logits, read by the E-step and Q, by `gating_probs` (the
  simulator's) and by the gating fit.
* `mnlogit_fit` -- maximum-likelihood multinomial logit with the last class
  pinned to zero weights for identification; the gating fit. Its Newton
  iterations read the `MNLOGIT_RIDGE`, `MNLOGIT_MAX_ITER` and `MNLOGIT_TOL`
  constants. A stack of labelings (the EM replicates of one stack) is
  fitted in one batched Newton iteration, each replicate with its own step
  halving and its own stop, and products taken per replicate, so each gets
  the weights it gets alone. It returns the weights with the gating log
  probabilities its last iteration formed at them (`GatingFit`), which the
  M-step keeps as its log prior.
* `row_max`, `row_sum` and `row_cumsum` -- the maximum, sum and running
  sum over a short last axis, column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LAMBDA_FLOOR = 1e-10
RANK_TOL = 1e-10
MNLOGIT_RIDGE = 1e-6     # L2 penalty of the gating fit
MNLOGIT_MAX_ITER = 50    # Newton steps of the gating fit
MNLOGIT_TOL = 1e-8       # gradient infinity-norm that stops the gating fit


@dataclass
class DiagGaussianFit:
    """Least-squares coefficients (c, L), per-column noise variances (L,)
    and the residuals (n, L) they were computed from."""

    coef: np.ndarray
    lam: np.ndarray
    resid: np.ndarray


def mvls_fit(design: np.ndarray, targets: np.ndarray) -> DiagGaussianFit:
    """Column-wise least squares of targets (n, L) on design (n, c).

    Solved through a thin QR factorization. Variances are the mean squared
    residuals per column (maximum likelihood), floored at `LAMBDA_FLOOR` so
    exact fits cannot produce zero-variance coordinates.

    Raises
    ------
    ValueError
        If n = 0, n < c or the design is numerically rank deficient (relative
        singular value below 1e-10); the message reports the smallest
        singular value rather than falling back to a pseudo-inverse.
    """
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    check_design(design)
    Q, R = np.linalg.qr(design)
    coef = solve_upper(R, Q.T @ targets)
    resid = targets - design @ coef
    lam = np.maximum(np.mean(resid ** 2, axis=0), LAMBDA_FLOOR)
    return DiagGaussianFit(coef=coef, lam=lam, resid=resid)


def solve_upper(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """R^-1 B for an upper-triangular R (c, c) with nonzero diagonal.

    LAPACK's LU of a triangular R pivots nowhere and leaves R as its U, so
    `np.linalg.solve` runs the same triangular back substitution as
    `scipy.linalg.solve_triangular`, with the same bits for two or more
    right-hand sides. A single right-hand side takes a one-column path that
    differs between OpenBLAS builds: numpy 2.4.6's (OpenBLAS 0.3.31) and
    scipy 1.17.1's (0.3.30) rounded apart in most draws, by up to 3.4e-14
    relative, so `mvls_fit` on one target column (stage 1 on a one-function
    basis) is not scipy's to the bit. A 1 x 1 system is: both divide by R.
    The result is returned in Fortran order, as scipy returns it: the
    products that read it take other BLAS paths, with other bits, for a
    C-ordered operand.
    """
    return np.asfortranarray(np.linalg.solve(R, B))


def check_design(design: np.ndarray) -> None:
    """Raise ValueError unless the design (n, c) has n >= 1 rows, n >= c and
    full column rank (relative smallest singular value above `RANK_TOL`); a
    design with rows but no columns passes."""
    n, c = design.shape
    if not n:
        raise ValueError(f"empty design: no rows (c={c})")
    if n < c:
        raise ValueError(f"under-determined least squares: n={n} < c={c}")
    s = np.linalg.svd(design, compute_uv=False)
    if c and s[-1] <= RANK_TOL * s[0]:
        raise ValueError(f"rank-deficient design: smallest singular value {s[-1]:.3e}")


def augment(z: np.ndarray) -> np.ndarray:
    """Prepend an all-ones intercept column to the control matrix (n, q)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    return np.hstack([np.ones((z.shape[0], 1)), z])


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, taken column by column: a maximum
    is exact in any order and NaN propagates alike, and over a last axis as
    short as a group count this is many times faster than the reduction."""
    out = x[..., :1].copy()
    for k in range(1, x.shape[-1]):
        np.maximum(out, x[..., k:k + 1], out=out)
    return out


def row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` with its bits. Over a last axis of
    1 to 7 entries numpy adds the entries in order to a zero start, so this
    starts from ``x[..., :1] + 0.0`` and adds the columns in order, many
    times faster on a last axis as short as a group count; from 8 entries
    numpy sums in pairs, and so does this, by calling it."""
    if not 0 < x.shape[-1] < 8:
        return x.sum(axis=-1, keepdims=True)
    out = x[..., :1] + 0.0
    for k in range(1, x.shape[-1]):
        out += x[..., k:k + 1]
    return out


def row_cumsum(x: np.ndarray) -> np.ndarray:
    """``np.cumsum(x, axis=-1)``, column by column: cumsum adds in sequence
    at every length, so the bits are the same."""
    out = np.array(x, dtype=np.float64)
    for k in range(1, out.shape[-1]):
        out[..., k] += out[..., k - 1]
    return out


def log_gating(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Log class probabilities (n, K) of the gating model with weights
    w (K, q+1) at the augmented controls `features` (n, q+1): the
    log-softmax of the logits ``features @ w.T``, computed with max
    subtraction so that no exponential overflows. A stack of weights
    (A, K, q+1) gives a stack (A, n, K), one product per replicate."""
    logits = features @ np.swapaxes(w, -1, -2)
    logits -= row_max(logits)
    return logits - np.log(row_sum(np.exp(logits)))


def gating_probs(w: np.ndarray, z_aug: np.ndarray) -> np.ndarray:
    """Class probabilities of the multinomial-logit gating model.

    Parameters
    ----------
    w : ndarray, shape (K, q+1)
        Gating weights; the last row is the pinned reference class.
    z_aug : ndarray, shape (n, q+1) or (q+1,)
        Control covariates with a leading 1.

    Returns
    -------
    ndarray, shape (n, K) or (K,)
        ``exp(log_gating(w, z_aug))``; rows are positive and sum to 1.
    """
    probs = np.exp(log_gating(np.asarray(w, dtype=np.float64), np.atleast_2d(z_aug)))
    return probs[0] if np.ndim(z_aug) == 1 else probs


def _mnlogit_newton(features, onehot, n_classes, init=None):
    """Newton iterations on the (K-1)(q+1) free weights of the penalized
    multinomial-logit likelihood, from `init` (K-1, q+1) or zero, with the
    penalty `MNLOGIT_RIDGE`, at most `MNLOGIT_MAX_ITER` steps and the
    gradient tolerance `MNLOGIT_TOL`. The class probabilities come from
    `log_gating` on the weights with the pinned zero row appended. Returns
    (w, objective trace, log_p), log_p (n, K) being those log probabilities
    at the returned w.

    `onehot` (A, n, K) and `init` (A, K-1, q+1) may instead be a stack of A
    labelings of the same features; then w is (A, K-1, q+1), the trace a
    list of A traces and log_p (A, n, K). The stack is fitted together, each replicate with its
    own step halving and its own stop, and every product is taken per
    replicate, so each replicate's bits are those of the fit on it alone.

    A step is accepted when it does not lower the objective, judged by the
    change itself rather than by two rounded totals: each row's
    log-sum-exp moves by log(sum_k p_k exp(f . s_k)) = log1p(sum_k p_k
    expm1(f . s_k)), which keeps its relative precision for steps far below
    the objective's rounding level, so the iteration reaches `MNLOGIT_TOL`.
    Where the sum inside log1p is below -1/2, the step moves most of the
    row's probability onto the reference class and log1p would cancel (to
    -inf at -1); there the direct form log(p_ref + sum_{k<K} p_k
    exp(f . s_k)) is taken.
    """
    single = onehot.ndim == 2
    if single:
        onehot = onehot[None]
        init = None if init is None else np.asarray(init)[None]
    stack, (n, m) = onehot.shape[0], features.shape
    free = n_classes - 1
    W = np.zeros((stack, free, m)) if init is None else np.array(init, dtype=np.float64)
    # sum_i logit_{i, label_i} = sum(W * class_sums): the likelihood's linear part
    class_sums = np.swapaxes(onehot[:, :, :free], 1, 2) @ features
    outer = (features[:, :, None] * features[:, None, :]).reshape(n, m * m)
    eye = np.eye(free)
    diagonal = np.arange(free * m)

    def log_probs(W):
        return log_gating(np.concatenate([W, np.zeros((W.shape[0], 1, m))], axis=1), features)

    def gain(P, grad_lin, step):
        """Objective change of W + step, given the probabilities P at W."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            moved = features @ np.swapaxes(step, 1, 2)
            rel = row_sum(P[:, :, :free] * np.expm1(moved))[..., 0]
            lse = np.log1p(rel)
            low = rel < -0.5
            if low.any():
                lse[low] = np.log(P[:, :, free][low]
                                  + np.sum(P[:, :, :free][low] * np.exp(moved[low]), axis=1))
        return (np.sum(step * (grad_lin - 0.5 * MNLOGIT_RIDGE * step), axis=(1, 2))
                - np.sum(lse, axis=1))

    log_p = log_probs(W)
    P = np.exp(log_p)
    start = np.sum(onehot * log_p, axis=(1, 2)) - 0.5 * MNLOGIT_RIDGE * np.sum(W * W, axis=(1, 2))
    traces = [[value] for value in start]
    final, final_log_p = np.empty_like(W), np.empty_like(log_p)
    rows = np.arange(stack)  # the replicate of each row still iterating
    for _ in range(MNLOGIT_MAX_ITER):
        grad_lin = class_sums - MNLOGIT_RIDGE * W
        grad = grad_lin - np.swapaxes(P[:, :, :free], 1, 2) @ features
        if not np.all(np.isfinite(grad)):
            raise ValueError("separation or bad scaling")
        going = np.abs(grad).max(axis=(1, 2)) >= MNLOGIT_TOL
        if not going.all():
            final[rows[~going]], final_log_p[rows[~going]] = W[~going], log_p[~going]
            rows, W, P, log_p, class_sums, grad_lin, grad = (
                a[going] for a in (rows, W, P, log_p, class_sums, grad_lin, grad))
            if not rows.size:
                break
        # Negative Hessian block (k, c): sum_i p_ik (delta_kc - p_ic) f_i f_i^T,
        # all blocks from one product with the per-individual outer products.
        Pf = P[:, :, :free]
        wts = (Pf[:, :, :, None] * (eye - Pf[:, :, None, :])).reshape(rows.size, n, free * free)
        H = (np.swapaxes(wts, 1, 2) @ outer).reshape(rows.size, free, free, m, m)
        H = H.transpose(0, 1, 3, 2, 4).reshape(rows.size, free * m, free * m)
        H[:, diagonal, diagonal] += MNLOGIT_RIDGE
        step = np.linalg.solve(H, grad.reshape(rows.size, free * m, 1)).reshape(W.shape)
        change = gain(P, grad_lin, step)
        halving = np.flatnonzero(~(np.isfinite(change) & (change >= 0.0)))
        for _ in range(29):  # step halving until the objective does not fall
            if not halving.size:
                break
            step[halving] = 0.5 * step[halving]
            tried = gain(P[halving], grad_lin[halving], step[halving])
            ok = np.isfinite(tried) & (tried >= 0.0)
            change[halving[ok]] = tried[ok]
            halving = halving[~ok]
        if halving.size:  # no ascent after 30 tries: these replicates stop
            final[rows[halving]], final_log_p[rows[halving]] = W[halving], log_p[halving]
            kept = np.ones(rows.size, dtype=bool)
            kept[halving] = False
            rows, W, P, log_p, class_sums, step, change = (
                a[kept] for a in (rows, W, P, log_p, class_sums, step, change))
            if not rows.size:
                break
        W = W + step
        log_p = log_probs(W)
        P = np.exp(log_p)
        for r, value in zip(rows, change):
            traces[r].append(traces[r][-1] + value)
    final[rows], final_log_p[rows] = W, log_p
    if not all(np.isfinite(trace[-1]) for trace in traces):
        raise ValueError("separation or bad scaling")
    return (final[0], traces[0], final_log_p[0]) if single else (final, traces, final_log_p)


class GatingFit(NamedTuple):
    """`mnlogit_fit`'s result: the weights `w` and the gating log
    probabilities `log_prior`, ``log_gating(w, features)``, bit for bit."""

    w: np.ndarray
    log_prior: np.ndarray


def mnlogit_fit(features: np.ndarray, labels: np.ndarray, n_classes: int,
                init: np.ndarray = None) -> GatingFit:
    """Fit gating weights by penalized maximum likelihood.

    Parameters
    ----------
    features : ndarray, shape (n, q+1)
        Control covariates with a leading all-ones column.
    labels : ndarray of int, shape (n,) or (A, n)
        Class labels in {1..n_classes}; a 2-D array is a stack of A
        labelings, fitted together (`_mnlogit_newton`) with the same result
        as A separate calls.
    n_classes : int
        Number of classes K; class K is the pinned reference.
    init : ndarray, shape (K, q+1) or (A, K, q+1), optional
        Starting weights, e.g. the previous EM iteration's (warm start); the
        default starts from zero. The optimum reached is the same to within
        `MNLOGIT_TOL` on the gradient.

    Returns
    -------
    GatingFit
        `w`, shape (K, q+1) or (A, K, q+1): gating weights with the last
        row identically zero; `log_prior`, shape (n, K) or (A, n, K): the
        class log probabilities at `w`, as the last Newton iteration formed
        them, equal to ``log_gating(w, features)`` bit for bit. The objective is
        penalized by `MNLOGIT_RIDGE` times half the squared weights, which
        keeps the optimum finite under separation; it is non-decreasing
        across Newton steps (step halving on decrease), and iteration stops
        when the gradient infinity-norm falls below `MNLOGIT_TOL` or after
        `MNLOGIT_MAX_ITER` steps.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    n, m = features.shape
    if labels.shape[-1] != n:
        raise ValueError(f"label count {labels.shape[-1]} does not match n={n}")
    if labels.min() < 1 or labels.max() > n_classes:
        raise ValueError(f"labels must lie in 1..{n_classes}")
    if n_classes == 1:
        w = np.zeros((*labels.shape[:-1], 1, m))
        return GatingFit(w, log_gating(w, features))
    onehot = (labels[..., None] == np.arange(1, n_classes + 1)).astype(np.float64)
    start = None if init is None else np.asarray(init, dtype=np.float64)[..., :-1, :]
    W, _, log_p = _mnlogit_newton(features, onehot, n_classes, start)
    return GatingFit(np.concatenate([W, np.zeros((*W.shape[:-2], 1, m))], axis=-2), log_p)
