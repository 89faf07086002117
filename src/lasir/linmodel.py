"""Regression primitives used by the EM engine and the baselines.

* `mvls_fit` -- multivariate least squares with a shared design and many
  target columns, plus per-column residual variances (a diagonal Gaussian
  model); the label-free stage 1 of the M-step.
* `check_design` -- the size and rank test that `mvls_fit` and the M-step's
  per-group stage 2 apply to a design before solving.
* `log_gating` -- log class probabilities of the multinomial-logit gating
  model, a log-softmax with max subtraction: the one normalization of the
  gating logits, read by the E-step and Q, by `gating_probs` (the
  simulator's) and by the gating fit.
* `mnlogit_fit` -- maximum-likelihood multinomial logit with the last class
  pinned to zero weights for identification; the gating fit. Its Newton
  iterations read the `MNLOGIT_RIDGE`, `MNLOGIT_MAX_ITER` and `MNLOGIT_TOL`
  constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

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
        If n < c or the design is numerically rank deficient (relative
        singular value below 1e-10); the message reports the smallest
        singular value rather than falling back to a pseudo-inverse.
    """
    design = np.atleast_2d(np.asarray(design, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    check_design(design)
    Q, R = np.linalg.qr(design)
    coef = solve_triangular(R, Q.T @ targets, lower=False)
    resid = targets - design @ coef
    lam = np.maximum(np.mean(resid ** 2, axis=0), LAMBDA_FLOOR)
    return DiagGaussianFit(coef=coef, lam=lam, resid=resid)


def check_design(design: np.ndarray) -> None:
    """Raise ValueError unless the design (n, c) has n >= c and full column
    rank (relative smallest singular value above `RANK_TOL`); a design with
    no columns passes."""
    n, c = design.shape
    if n < c:
        raise ValueError(f"under-determined least squares: n={n} < c={c}")
    s = np.linalg.svd(design, compute_uv=False)
    if c and s[-1] <= RANK_TOL * s[0]:
        raise ValueError(f"rank-deficient design: smallest singular value {s[-1]:.3e}")


def augment(z: np.ndarray) -> np.ndarray:
    """Prepend an all-ones intercept column to the control matrix (n, q)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    return np.hstack([np.ones((z.shape[0], 1)), z])


def log_gating(w: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Log class probabilities (n, K) of the gating model with weights
    w (K, q+1) at the augmented controls `features` (n, q+1): the
    log-softmax of the logits ``features @ w.T``, computed with max
    subtraction so that no exponential overflows."""
    logits = features @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


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
    (w, objective trace).

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
    n, m = features.shape
    free = n_classes - 1
    W = np.zeros((free, m)) if init is None else np.array(init, dtype=np.float64)
    # sum_i logit_{i, label_i} = sum(W * class_sums): the likelihood's linear part
    class_sums = onehot[:, :free].T @ features
    outer = (features[:, :, None] * features[:, None, :]).reshape(n, m * m)
    eye = np.eye(free)

    def gain(P, grad_lin, step):
        """Objective change of W + step, given the probabilities P at W."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            moved = features @ step.T
            rel = np.sum(P[:, :free] * np.expm1(moved), axis=1)
            lse = np.log1p(rel)
            low = rel < -0.5
            if low.any():
                lse[low] = np.log(P[low, free] + np.sum(P[low, :free] * np.exp(moved[low]), axis=1))
        return np.sum(step * (grad_lin - 0.5 * MNLOGIT_RIDGE * step)) - np.sum(lse)

    log_p = log_gating(np.vstack([W, np.zeros((1, m))]), features)
    P = np.exp(log_p)
    trace = [np.sum(onehot * log_p) - 0.5 * MNLOGIT_RIDGE * np.sum(W * W)]
    for _ in range(MNLOGIT_MAX_ITER):
        Pf = P[:, :free]
        grad_lin = class_sums - MNLOGIT_RIDGE * W
        grad = grad_lin - Pf.T @ features
        if not np.all(np.isfinite(grad)):
            raise ValueError("separation or bad scaling")
        if np.max(np.abs(grad)) < MNLOGIT_TOL:
            break
        # Negative Hessian block (k, c): sum_i p_ik (delta_kc - p_ic) f_i f_i^T,
        # all blocks from one product with the per-individual outer products.
        wts = (Pf[:, :, None] * (eye - Pf[:, None, :])).reshape(n, free * free)
        H = (wts.T @ outer).reshape(free, free, m, m).transpose(0, 2, 1, 3)
        H = H.reshape(free * m, free * m)
        H.flat[::free * m + 1] += MNLOGIT_RIDGE
        step = np.linalg.solve(H, grad.ravel()).reshape(free, m)
        for _ in range(30):  # step halving until the objective does not fall
            change = gain(P, grad_lin, step)
            if np.isfinite(change) and change >= 0.0:
                break
            step = 0.5 * step
        else:
            break
        W = W + step
        P = np.exp(log_gating(np.vstack([W, np.zeros((1, m))]), features))
        trace.append(trace[-1] + change)
    if not np.isfinite(trace[-1]):
        raise ValueError("separation or bad scaling")
    return W, trace


def mnlogit_fit(features: np.ndarray, labels: np.ndarray, n_classes: int,
                init: np.ndarray = None) -> np.ndarray:
    """Fit gating weights by penalized maximum likelihood.

    Parameters
    ----------
    features : ndarray, shape (n, q+1)
        Control covariates with a leading all-ones column.
    labels : ndarray of int, shape (n,)
        Class labels in {1..n_classes}.
    n_classes : int
        Number of classes K; class K is the pinned reference.
    init : ndarray, shape (K, q+1), optional
        Starting weights, e.g. the previous EM iteration's (warm start); the
        default starts from zero. The optimum reached is the same to within
        `MNLOGIT_TOL` on the gradient.

    Returns
    -------
    ndarray, shape (K, q+1)
        Gating weights with the last row identically zero. The objective is
        penalized by `MNLOGIT_RIDGE` times half the squared weights, which
        keeps the optimum finite under separation; it is non-decreasing
        across Newton steps (step halving on decrease), and iteration stops
        when the gradient infinity-norm falls below `MNLOGIT_TOL` or after
        `MNLOGIT_MAX_ITER` steps.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    n, m = features.shape
    if labels.shape[0] != n:
        raise ValueError(f"label count {labels.shape[0]} does not match n={n}")
    if labels.min() < 1 or labels.max() > n_classes:
        raise ValueError(f"labels must lie in 1..{n_classes}")
    if n_classes == 1:
        return np.zeros((1, m))
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels - 1] = 1.0
    start = None if init is None else np.asarray(init, dtype=np.float64)[:-1]
    W, _ = _mnlogit_newton(features, onehot, n_classes, start)
    return np.vstack([W, np.zeros((1, m))])
