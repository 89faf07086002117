"""Desk-scale experiment drivers behind the `reproduce` command."""

from __future__ import annotations

import logging

import numpy as np

from .baselines import kmlr_fit, svcm_fit
from .metrics import match_groups, mse_svc, nmi
from .projection import backproject
from .selection import select_k
from .sem import SemConfig, fit_sem
from .simulate import SimConfig, simulate_cube

logger = logging.getLogger(__name__)


def _alpha_voxel_maps(params, basis):
    """Backproject fitted group coefficients to (K, p+1, d)."""
    K, p1, _ = params.theta_alpha.shape
    return np.stack([backproject(params.theta_alpha[k], basis) for k in range(K)])


def beta_mse(alpha_est, labels_est, truth):
    """Individual beta-MSE: the mean over individuals i, exposures and voxels
    of (alpha_est[label_est_i] - alpha[label_i])^2, from the table N of
    (estimated, true) label counts as

        sum_{k_est, k} N[k_est, k] ||alpha_est[k_est] - alpha[k]||^2 / (n (p+1) d)

    so that no per-individual map is formed. `alpha_est` is (K_est, p+1, d).
    """
    labels_est = np.asarray(labels_est, dtype=int)
    counts = np.zeros((alpha_est.shape[0], truth.alpha.shape[0]))
    np.add.at(counts, (labels_est - 1, truth.labels - 1), 1.0)
    sq = ((alpha_est[:, None] - truth.alpha[None]) ** 2).sum(axis=(2, 3))
    return float(np.sum(counts * sq) / (labels_est.size * truth.alpha[0].size))


def evaluate_fit(fit_params, labels_est, truth, basis):
    """Alignment-aware alpha-MSE and individual beta-MSE against truth.

    The group count is `fit_params.n_groups`; it must equal the truth's.
    """
    alpha_est = _alpha_voxel_maps(fit_params, basis)
    perm = match_groups(labels_est, truth.labels, fit_params.n_groups)
    alpha_aligned = np.empty_like(alpha_est)
    alpha_aligned[perm - 1] = alpha_est
    return mse_svc(alpha_aligned, truth.alpha), beta_mse(alpha_est, labels_est, truth)


def run_table2(n=SimConfig.n, dims=SimConfig.dims, sigma=SimConfig.sigma, reps=10, seed=0,
               restarts=6, threads=SemConfig.threads):
    """Cube-design comparison of the latent-subgroup fit against the
    k-means baseline and the no-subgroup fit.

    Simulates `reps` datasets (K=3 groups differing only in exposure slope),
    fits all three methods on each, and reports clustering NMI plus alpha-
    and beta-map MSEs. Returns (rows, summary): one dict per replicate and
    a dict of column means.
    """
    rows = []
    basis = None
    for r in range(reps):
        cfg = SimConfig(dims=tuple(dims), n=n, n_groups=3, sigma=sigma, seed=seed + r)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        sem_cfg = SemConfig(restarts=restarts, seed=seed + 1000 * r, threads=threads)
        lasir = fit_sem(dataset, basis, 3, sem_cfg)
        kmlr = kmlr_fit(dataset, basis, 3, sem_cfg)
        svcm = svcm_fit(dataset, basis)

        la_alpha, la_beta = evaluate_fit(lasir.params, lasir.labels, truth, basis)
        km_alpha, km_beta = evaluate_fit(kmlr.params, kmlr.labels, truth, basis)
        sv_beta = beta_mse(_alpha_voxel_maps(svcm, basis), np.ones_like(truth.labels), truth)
        row = {
            "rep": r,
            "nmi_lasir": nmi(lasir.labels, truth.labels),
            "nmi_kmlr": nmi(kmlr.labels, truth.labels),
            "alpha_mse_lasir": la_alpha,
            "alpha_mse_kmlr": km_alpha,
            "beta_mse_lasir": la_beta,
            "beta_mse_kmlr": km_beta,
            "beta_mse_svcm": sv_beta,
        }
        rows.append(row)
        logger.info("rep %d: NMI lasir=%.3f kmlr=%.3f | beta-MSE lasir=%.2e "
                    "kmlr=%.2e svcm=%.2e", r, row["nmi_lasir"], row["nmi_kmlr"],
                    row["beta_mse_lasir"], row["beta_mse_kmlr"], row["beta_mse_svcm"])
    keys = [k for k in rows[0] if k != "rep"]
    summary = {k: float(np.mean([row[k] for row in rows])) for k in keys}
    return rows, summary


def run_k_selection(n=300, dims=(10, 10, 10), sigma=1.0, reps=10, seed=0,
                    candidates=(1, 2, 3), restarts=4):
    """Repeatedly simulate single-group data and record the BIC choice of K.

    Each replicate's candidate fits run their restarts in `SemConfig`'s
    default single stack, on the calling thread."""
    chosen = []
    for r in range(reps):
        cfg = SimConfig(dims=tuple(dims), n=n, n_groups=1, sigma=sigma, seed=seed + r)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        sem_cfg = SemConfig(restarts=restarts, seed=seed + 1000 * r)
        best, records, _ = select_k(dataset, basis, candidates, sem_cfg)
        chosen.append(best)
        logger.info("rep %d: chose K=%d (BICs %s)", r, best,
                    [f"{rec.n_groups}:{rec.bic:.1f}" for rec in records])
    return chosen
