"""The latent-subgroup model computed densely from its definition, as the
tests' oracle for lasir's E-step, Q and M-step.

Everything here is written the plain way: one labeling and one set of
parameters at a time, no sufficient sums, no expanded distances and no
two-stage estimator. Individual i with label k has the residual

    r_i = ytilde_i - sites_i theta_gamma - controls_i theta_eta - x_i theta_k

and the complete-data value at labels and parameters is

    Q = sum_i [ log N(r_i; 0, diag(lam)) + log Pr(label_i | w, z_i) ],

the gating probabilities being the softmax of [1, z_i] w^T. The M-step
maximizes Q at fixed labels: the mean parameters by one least-squares fit of
ytilde on [sites | controls | X_W] (X_W the exposures masked by group, one
block of p+1 columns per group), the noise variances as the mean squared
residuals floored at `LAMBDA_FLOOR`, the gating weights by `mnlogit_fit`.
The design is rank deficient (the site indicators and every group's
intercept column each sum to the ones vector), so the fit is the min-norm
solution: its slopes, fitted values, RSS and Q are those of any solution,
its site and intercept coefficients are not lasir's.

`residuals` is the one place the model's mean is formed: Q, the densities
and the M-step's RSS all read it.
"""

import numpy as np

from lasir.linmodel import LAMBDA_FLOOR, MNLOGIT_RIDGE, augment, mnlogit_fit
from lasir.sem import ModelParams


def residuals(ytilde, dataset, labels, params):
    """r (n, L): ytilde minus the model's mean for each individual's label."""
    chosen = params.theta_alpha[np.asarray(labels) - 1]  # (n, p+1, L)
    return (ytilde - dataset.sites @ params.theta_gamma - dataset.controls @ params.theta_eta
            - np.einsum("ij,ijl->il", dataset.exposures, chosen))


def log_gating(w, features):
    """log Pr(label = k | w, z_i) (n, K): the log-softmax of features @ w^T."""
    logits = features @ w.T
    top = logits.max(axis=1, keepdims=True)
    return logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))


def gating_objective(features, labels, w):
    """The gating fit's penalized objective: the labels' log likelihood
    minus `MNLOGIT_RIDGE` times half the squared weights."""
    n = len(labels)
    return (log_gating(w, features)[np.arange(n), labels - 1].sum()
            - 0.5 * MNLOGIT_RIDGE * np.sum(w ** 2))


def log_normal(resid, lam):
    """log N(r_i; 0, diag(lam)) (m,) of each row r_i of `resid` (m, L)."""
    return -0.5 * (np.sum(np.log(2.0 * np.pi * lam)) + (resid ** 2 / lam).sum(axis=1))


def q_value(ytilde, dataset, labels, params):
    """Q at `labels` (n,) and `params`."""
    n = len(labels)
    gate = log_gating(params.w, augment(dataset.controls))[np.arange(n), labels - 1]
    return (log_normal(residuals(ytilde, dataset, labels, params), params.lam) + gate).sum()


def log_density(ytilde, dataset, params):
    """log N(r_i; 0, diag(lam)) (n, K) of every individual under every group."""
    n = len(ytilde)
    return np.column_stack([
        log_normal(residuals(ytilde, dataset, np.full(n, k), params), params.lam)
        for k in range(1, params.n_groups + 1)])


def responsibilities(ytilde, dataset, params):
    """Posterior group probabilities (n, K): prior times density, normalized."""
    joint = log_gating(params.w, augment(dataset.controls)) + log_density(ytilde, dataset, params)
    joint -= joint.max(axis=1, keepdims=True)
    resp = np.exp(joint)
    return resp / resp.sum(axis=1, keepdims=True)


def m_step(ytilde, dataset, labels, n_groups):
    """The parameters maximizing Q at `labels` (n,), with `rss` the
    per-coordinate sums of squared residuals."""
    n, L = ytilde.shape
    S, q = dataset.sites.shape[1], dataset.controls.shape[1]
    x_w = np.hstack([dataset.exposures * (labels == k)[:, None]
                     for k in range(1, n_groups + 1)])
    coef = np.linalg.lstsq(np.hstack([dataset.sites, dataset.controls, x_w]), ytilde,
                           rcond=None)[0]
    params = ModelParams(theta_alpha=coef[S + q:].reshape(n_groups, -1, L),
                         theta_eta=coef[S:S + q], theta_gamma=coef[:S], lam=None,
                         w=mnlogit_fit(augment(dataset.controls), labels, n_groups).w)
    params.rss = (residuals(ytilde, dataset, labels, params) ** 2).sum(axis=0)
    params.lam = np.maximum(params.rss / n, LAMBDA_FLOOR)
    return params
