"""Regression primitives used by the EM engine and the baselines.

* `mvls_fit` -- multivariate least squares with a shared design and many
  target columns, plus per-column residual variances (a diagonal Gaussian
  model); the label-free stage 1 of the M-step.
* `check_design` -- the size and rank test that `mvls_fit` and the M-step's
  per-group stage 2 apply to a design before solving.
* `mnlogit_fit` -- maximum-likelihood multinomial logit with the last class
  pinned to zero weights for identification; the gating fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

LAMBDA_FLOOR = 1e-10
RANK_TOL = 1e-10
MNLOGIT_RIDGE = 1e-6


@dataclass
class DiagGaussianFit:
    """Least-squares coefficients (c, L), per-column noise variances (L,)
    and the residuals (n, L) they were computed from."""

    coef: np.ndarray
    lam: np.ndarray
    resid: np.ndarray


def mvls_fit(design: np.ndarray, targets: np.ndarray,
             lambda_floor: float = LAMBDA_FLOOR) -> DiagGaussianFit:
    """Column-wise least squares of targets (n, L) on design (n, c).

    Solved through a thin QR factorization. Variances are the mean squared
    residuals per column (maximum likelihood), floored at `lambda_floor` so
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
    lam = np.maximum(np.mean(resid ** 2, axis=0), lambda_floor)
    return DiagGaussianFit(coef=coef, lam=lam, resid=resid)


def check_design(design: np.ndarray) -> None:
    """Raise ValueError unless the design (n, c) has n >= c and full column
    rank (relative smallest singular value above `RANK_TOL`)."""
    n, c = design.shape
    if n < c:
        raise ValueError(f"under-determined least squares: n={n} < c={c}")
    s = np.linalg.svd(design, compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise ValueError(f"rank-deficient design: smallest singular value {s[-1]:.3e}")


def augment(z: np.ndarray) -> np.ndarray:
    """Prepend an all-ones intercept column to the control matrix (n, q)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    return np.hstack([np.ones((z.shape[0], 1)), z])


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
        Softmax over logits ``w @ z``, computed with max subtraction; rows
        are positive and sum to 1.
    """
    single = np.ndim(z_aug) == 1
    logits = np.atleast_2d(z_aug) @ np.asarray(w, dtype=np.float64).T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs[0] if single else probs


def _mnlogit_newton(features, onehot, n_classes, ridge, max_iter, tol, init=None):
    """Newton iterations on the (K-1)(q+1) free weights of the penalized
    multinomial-logit likelihood, from `init` (K-1, q+1) or zero. Returns
    (w, objective trace).

    A step is accepted when it does not lower the objective, judged by the
    change itself rather than by two rounded totals: each row's
    log-sum-exp moves by log(sum_k p_k exp(f . s_k)) = log1p(sum_k p_k
    expm1(f . s_k)), which keeps its relative precision for steps far below
    the objective's rounding level, so the iteration reaches `tol`.
    """
    n, m = features.shape
    free = n_classes - 1
    W = np.zeros((free, m)) if init is None else np.array(init, dtype=np.float64)
    # sum_i logit_{i, label_i} = sum(W * class_sums): the likelihood's linear part
    class_sums = onehot[:, :free].T @ features
    outer = (features[:, :, None] * features[:, None, :]).reshape(n, m * m)
    eye = np.eye(free)
    logits = np.zeros((n, n_classes))  # the reference class keeps logit 0

    def probabilities(Wf):
        """Class probabilities (n, K) at Wf and the rows' max logits and
        exponential sums, whose logs add up to the rows' log-sum-exp."""
        logits[:, :free] = features @ Wf.T
        top = logits.max(axis=1, keepdims=True)
        P = np.exp(logits - top)
        total = P.sum(axis=1, keepdims=True)
        P /= total
        return P, top, total

    def gain(Pf, grad_lin, step):
        """Objective change of W + step, given the probabilities Pf at W."""
        with np.errstate(over="ignore", invalid="ignore"):
            lse = np.sum(np.log1p(np.sum(Pf * np.expm1(features @ step.T), axis=1)))
        return np.sum(step * (grad_lin - 0.5 * ridge * step)) - lse

    P, top, total = probabilities(W)
    lse = np.sum(top) + np.sum(np.log(total))
    trace = [np.sum(W * class_sums) - lse - 0.5 * ridge * np.sum(W * W)]
    for _ in range(max_iter):
        Pf = P[:, :free]
        grad_lin = class_sums - ridge * W
        grad = grad_lin - Pf.T @ features
        if not np.all(np.isfinite(grad)):
            raise ValueError("separation or bad scaling")
        if np.max(np.abs(grad)) < tol:
            break
        # Negative Hessian block (k, c): sum_i p_ik (delta_kc - p_ic) f_i f_i^T,
        # all blocks from one product with the per-individual outer products.
        wts = (Pf[:, :, None] * (eye - Pf[:, None, :])).reshape(n, free * free)
        H = (wts.T @ outer).reshape(free, free, m, m).transpose(0, 2, 1, 3)
        H = H.reshape(free * m, free * m)
        H.flat[::free * m + 1] += ridge
        step = np.linalg.solve(H, grad.ravel()).reshape(free, m)
        for _ in range(30):  # step halving until the objective does not fall
            change = gain(Pf, grad_lin, step)
            if np.isfinite(change) and change >= 0.0:
                break
            step = 0.5 * step
        else:
            break
        W = W + step
        P = probabilities(W)[0]
        trace.append(trace[-1] + change)
    if not np.isfinite(trace[-1]):
        raise ValueError("separation or bad scaling")
    return W, trace


def mnlogit_fit(features: np.ndarray, labels: np.ndarray, n_classes: int,
                ridge: float = MNLOGIT_RIDGE, max_iter: int = 50,
                tol: float = 1e-8, init: np.ndarray = None) -> np.ndarray:
    """Fit gating weights by penalized maximum likelihood.

    Parameters
    ----------
    features : ndarray, shape (n, q+1)
        Control covariates with a leading all-ones column.
    labels : ndarray of int, shape (n,)
        Class labels in {1..n_classes}.
    n_classes : int
        Number of classes K; class K is the pinned reference.
    ridge : float
        L2 penalty added to the objective and the Hessian diagonal; keeps
        the optimum finite under separation.
    init : ndarray, shape (K, q+1), optional
        Starting weights, e.g. the previous EM iteration's (warm start); the
        default starts from zero. The optimum reached is the same to within
        `tol` on the gradient.

    Returns
    -------
    ndarray, shape (K, q+1)
        Gating weights with the last row identically zero. The penalized
        objective is non-decreasing across Newton steps (step halving on
        decrease); iteration stops when the gradient infinity-norm falls
        below `tol` or after `max_iter` steps.
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
    W, _ = _mnlogit_newton(features, onehot, n_classes, ridge, max_iter, tol, start)
    return np.vstack([W, np.zeros((1, m))])
