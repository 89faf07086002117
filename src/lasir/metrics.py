"""Evaluation: clustering agreement, coefficient errors, detection rates,
and the projected-prediction validation protocol."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .linmodel import mvls_fit
from .projection import backproject, project
from .sem import FitResult

logger = logging.getLogger(__name__)


def nmi(labels_a, labels_b) -> float:
    """Normalized mutual information between two labelings, in [0, 1].

    ``2 I(A;B) / (H(A) + H(B))`` with entropies in nats from the empirical
    joint frequencies; two single-cluster partitions score 1, independent
    partitions 0. Symmetric and invariant to relabeling on either side.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.size != b.size:
        raise ValueError(f"label length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("empty labelings")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    joint = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= a.size
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    ha = -np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa)))
    hb = -np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb)))
    if ha + hb == 0.0:
        return 1.0
    nz = joint > 0
    # identical partitions (up to relabeling) make the joint a one-nonzero-
    # per-row-and-column table; NMI is exactly 1 there
    if nz.sum(axis=0).max() == 1 and nz.sum(axis=1).max() == 1:
        return 1.0
    info = np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz]))
    return float(min(1.0, max(0.0, 2.0 * info / (ha + hb))))


def match_groups(labels_est, labels_true, n_groups: int) -> np.ndarray:
    """Permutation aligning estimated group indices to truth.

    Mixture labels are identifiable only up to permutation; this solves the
    assignment maximizing label agreement (Hungarian on the contingency
    table). Returns `perm` with ``perm[k_est - 1] = k_true``.
    """
    est = np.asarray(labels_est, dtype=int)
    true = np.asarray(labels_true, dtype=int)
    table = np.zeros((n_groups, n_groups))
    np.add.at(table, (est - 1, true - 1), 1.0)
    rows, cols = linear_sum_assignment(-table)
    perm = np.empty(n_groups, dtype=int)
    perm[rows] = cols + 1
    return perm


def mse_svc(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over all entries of two equally shaped map stacks."""
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    return float(np.mean((estimate - truth) ** 2))


def power_type1(reject, truth_nonzero):
    """Detection power and Type-I rate of a voxelwise decision vector.

    Power is the rejected fraction among truly nonzero voxels, Type I the
    rejected fraction among truly zero ones; a rate whose reference set is
    empty is reported as None.
    """
    reject = np.asarray(reject, dtype=bool)
    truth_nonzero = np.asarray(truth_nonzero, dtype=bool)
    if reject.shape != truth_nonzero.shape:
        raise ValueError("reject and truth_nonzero must have equal length")
    power = float(reject[truth_nonzero].mean()) if truth_nonzero.any() else None
    type1 = float(reject[~truth_nonzero].mean()) if (~truth_nonzero).any() else None
    return power, type1


@dataclass
class ValidationResult:
    """Holdout prediction MSEs per replicate split, plus fallback bookkeeping."""

    mode: str
    mse: np.ndarray
    unseen_fallbacks: int = 0


def _svcm_predict(train_rows, test_rows, dataset, ytilde, lambda_floor=1e-10):
    """Fit the no-subgroup model on `train_rows` and predict coefficient-space
    outcomes for `test_rows`. Site columns absent from the training rows are
    dropped from the fit and contribute zero to predictions."""
    design_tr = np.hstack([dataset.sites[train_rows], dataset.controls[train_rows]])
    keep = design_tr.any(axis=0)
    fit1 = mvls_fit(design_tr[:, keep], ytilde[train_rows], lambda_floor)
    resid = ytilde[train_rows] - design_tr[:, keep] @ fit1.coef
    fit2 = mvls_fit(dataset.exposures[train_rows], resid, lambda_floor)
    design_te = np.hstack([dataset.sites[test_rows], dataset.controls[test_rows]])
    return design_te[:, keep] @ fit1.coef + dataset.exposures[test_rows] @ fit2.coef


@_blas.single_thread
def validate_projection(dataset: Dataset, basis: BasisSystem, fit: FitResult,
                        mode: str, n_splits: int = 50, holdout_frac: float = 0.05,
                        seed: int = 0) -> ValidationResult:
    """Train/holdout prediction error stratified by the fitted subgroups.

    Each split holds out ~`holdout_frac` of the individuals within every
    fitted subgroup and reports the voxel-space mean squared prediction
    error over the holdout.

    mode "within"   : one no-subgroup fit per fitted subgroup on its training
                      members; holdouts are predicted by their subgroup's fit.
    mode "without"  : a single no-subgroup fit on all training rows.
    mode "shuffled" : training labels are permuted across individuals before
                      the per-subgroup fits.

    A holdout individual whose subgroup is unseen in training falls back to
    the without-subgroup fit; occurrences are counted in the result.

    Like `fit_sem`, the whole validation, projection included, runs with the
    bundled OpenBLAS pools pinned to one thread, so the MSEs are bit-identical
    whatever OPENBLAS_NUM_THREADS; the caller's pool sizes are restored on
    return. The pools are process-wide: other threads' BLAS calls meanwhile
    run single-threaded too. `build_basis`, `infer_maps` and a bare `project`
    keep the caller's pool.
    """
    if mode not in ("within", "without", "shuffled"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ytilde = project(dataset.images, basis)
    labels = np.asarray(fit.labels, dtype=int)
    groups = np.unique(labels)
    mses = np.empty(n_splits)
    fallbacks = 0
    for rep in range(n_splits):
        holdout = np.zeros(dataset.n, dtype=bool)
        for g in groups:
            members = np.nonzero(labels == g)[0]
            n_hold = max(1, int(round(holdout_frac * members.size)))
            holdout[rng.permutation(members)[:n_hold]] = True
        train = ~holdout
        if mode == "without":
            pred = _svcm_predict(train, holdout, dataset, ytilde)
        else:
            fit_labels = labels.copy()
            if mode == "shuffled":
                tr_idx = np.nonzero(train)[0]
                fit_labels[tr_idx] = fit_labels[rng.permutation(tr_idx)]
            pred = np.empty((int(holdout.sum()), ytilde.shape[1]))
            hold_idx = np.nonzero(holdout)[0]
            pos = {i: j for j, i in enumerate(hold_idx)}
            without_pred = None
            for g in groups:
                test_g = holdout & (labels == g)
                if not test_g.any():
                    continue
                train_g = train & (fit_labels == g)
                rows = [pos[i] for i in np.nonzero(test_g)[0]]
                if train_g.sum() < dataset.exposures.shape[1] + 1:
                    if without_pred is None:
                        without_pred = _svcm_predict(train, holdout, dataset, ytilde)
                    pred[rows] = without_pred[rows]
                    fallbacks += int(test_g.sum())
                    continue
                pred[rows] = _svcm_predict(train_g, test_g, dataset, ytilde)
        resid = dataset.images[holdout].astype(np.float64) - backproject(pred, basis)
        mses[rep] = float(np.mean(resid ** 2))
    if fallbacks:
        logger.info("validate_projection mode=%s: %d holdout individuals fell "
                    "back to the without-subgroup fit", mode, fallbacks)
    return ValidationResult(mode=mode, mse=mses, unseen_fallbacks=fallbacks)
