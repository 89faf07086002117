"""Evaluation: clustering agreement, coefficient errors, detection rates,
and the projected-prediction validation protocol."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .linmodel import mvls_fit  # noqa: F401 -- benchmarks/test_benchmarks.py wraps this binding
from .projection import projected
from .sem import FitResult, check_basis, check_count, check_fit, predict_from_sums

logger = logging.getLogger(__name__)

BLOCK = 1 << 20  # bytes of the largest stacked array of a block of holdout splits


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


def _assign(cost) -> list:
    """Column of each row in the assignment of least total `cost`, a list of
    rows of finite floats, no more rows than columns.

    A port of the shortest augmenting path solver that
    `scipy.optimize.linear_sum_assignment` runs (Crouse 2016) for this case:
    each row in turn is joined by the shortest augmenting path in reduced
    costs, then the duals are updated and the path is flipped. The columns
    left to scan start from the last one down, a column taken being
    replaced by the last in the list; among columns tied at the lowest path
    cost the last unassigned one scanned is taken, else the first one. The
    same operations in the same order give scipy's assignment, ties
    included.
    """
    rows, cols = len(cost), len(cost[0])
    u, v = [0.0] * rows, [0.0] * cols
    path, col4row, row4col = [-1] * cols, [-1] * rows, [-1] * cols
    for cur in range(rows):
        short, in_rows, in_cols = [math.inf] * cols, [False] * rows, [False] * cols
        remaining = list(range(cols - 1, -1, -1))
        i, low, sink = cur, 0.0, -1
        while sink < 0:
            in_rows[i] = True
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                reduced = low + cost[i][j] - u[i] - v[j]
                if reduced < short[j]:
                    path[j], short[j] = i, reduced
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    index, lowest = it, short[j]
            low, j = lowest, remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += low
        for r in range(rows):
            if in_rows[r] and r != cur:
                u[r] += low - short[col4row[r]]
        for c in range(cols):
            if in_cols[c]:
                v[c] -= low - short[c]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def match_groups(labels_est, labels_true, n_groups: int) -> np.ndarray:
    """Permutation aligning estimated group indices to truth.

    Mixture labels are identifiable only up to permutation; this solves the
    assignment maximizing label agreement on the contingency table of the
    `n_groups` estimated groups against max(`n_groups`, largest true label)
    true ones, by the shortest augmenting path algorithm of Crouse (2016) as
    `scipy.optimize.linear_sum_assignment` implements it (`_assign`), with
    its tie rule, so ties resolve as they do there. Returns `perm` with
    ``perm[k_est - 1] = k_true``; with fewer true groups than estimated
    ones, some estimated groups are matched to a true index beyond the
    largest true label.
    """
    est = np.asarray(labels_est, dtype=int)
    true = np.asarray(labels_true, dtype=int)
    table = np.zeros((n_groups, max(n_groups, true.max())))
    np.add.at(table, (est - 1, true - 1), 1.0)
    return np.array(_assign((-table).tolist())) + 1


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


def _holdout_mse(sq_norms, ytilde, pred, d):
    """Mean squared voxel error of predicted coefficient rows `pred` (m, L)
    for images with squared norms `sq_norms` (m,) and projections `ytilde`
    (m, L), by Parseval (orthonormal basis, `d` voxels). Stacks (B, m) and
    (B, m, L) give the B errors, each bit-identical to the call on its item."""
    sq_err = (np.sum(sq_norms, axis=-1) - 2.0 * np.sum(ytilde * pred, axis=(-2, -1))
              + np.sum(pred * pred, axis=(-2, -1)))
    return sq_err / (pred.shape[-2] * d)


def _rows(mask):
    """Column indices of the True entries of each row of `mask` (B, n), every
    row holding the same count, as an array (B, count)."""
    return np.nonzero(mask)[1].reshape(len(mask), int(mask[0].sum()))


@_blas.single_thread
def validate_projection(dataset: Dataset, basis: BasisSystem, fit: FitResult,
                        mode: str, n_splits: int = 50, holdout_frac: float = 0.05,
                        seed: int = 0) -> ValidationResult:
    """Train/holdout prediction error stratified by the fitted subgroups.

    Each split holds out ~`holdout_frac` of the individuals within every
    fitted subgroup and reports the voxel-space mean squared prediction
    error over the holdout. Every mode follows one rule: each held-out
    individual is predicted by the no-subgroup fit -- the shared stage 1 and
    a single-group stage 2 -- on the training rows of its subgroup. The
    modes differ only in the subgroups:

    mode "within"   : the fitted subgroups.
    mode "without"  : one subgroup of everyone.
    mode "shuffled" : the fitted subgroups, with the training labels
                      permuted across individuals before the fits.

    One rule covers every subgroup fit that cannot be solved: when
    `sem.predict_from_sums` reports a subgroup's training rows as failing --
    ValueError for a rank-deficient stage-1 design (sites present and
    controls) or a Gram block singular in floating point (LinAlgError), or
    `sem.DegenerateGroupError` when `sem.check_group` rejects their
    exposures (fewer than p+2 rows or a rank-deficient design) -- the
    subgroup's holdout individuals fall back to the fit on all training rows
    (the "without" prediction), and occurrences are counted in the result.
    That fit has no fallback: when it cannot be solved, as in "without" mode,
    the error of the first such split is raised.
    `n_splits` must be an integer >= 1 (`sem.check_count`), `holdout_frac` in
    (0, 1), the fit's labels one per individual of `dataset`
    (`sem.check_fit`) and the fit one of `basis` (`sem.check_basis`), else
    ValueError.

    The splits are taken in blocks, and each block's splits are drawn first,
    in the generator order of one split at a time (per split: each stratum's
    permutation, then, in "shuffled" mode, the permutation of the training
    labels). A block holds as many splits as keep its largest stacked array
    -- the cross sums, the held-out projections and predictions, or the
    training rows -- within `BLOCK` bytes.

    The fits are solved from sufficient statistics of the design rows
    Z = [sites | controls | exposures] and the projections ytilde. Per
    subgroup, the training Grams Z^T Z and cross sums Z^T ytilde of all of a
    block's splits are formed as stacks: the subgroup's totals, formed once
    per call, downdated by each split's held-out rows (in "shuffled" mode,
    the sums of each relabelled training group, taken directly, split by
    split). `sem.predict_from_sums` turns each stack into holdout predictions
    with solves of the size of the design: its rank rules are decided from
    the stacked Grams by `sem.rank_clear`, stage 2's eigenvalue screen, and
    `check_design`'s and `check_group`'s SVDs run only on the splits it does
    not clear; the splits are solved together, a site without training rows
    in a split taking coefficient 0, and each split's predictions are
    bit-identical to a fit of its own. The error is taken in coefficient space by Parseval: for an
    image y_i with projection ytilde_i = Psi^T y_i and a predicted
    coefficient row theta_i,

        ||y_i - Psi theta_i||^2 = ||y_i||^2 - 2 ytilde_i . theta_i + ||theta_i||^2,

    which relies on the basis being orthonormal (Psi^T Psi = I). The
    projections and the squared image norms are the dataset's record on the
    basis (`projection.projected`), shared with the fit of the same dataset
    and basis and with every other validation call, and no prediction is
    back-projected.

    Like `fit_sem`, the whole validation, projection included, runs with
    numpy's OpenBLAS pool pinned to one thread, so the MSEs are bit-identical
    whatever OPENBLAS_NUM_THREADS; the caller's pool size is restored on
    return. The pool is process-wide: other threads' BLAS calls meanwhile
    run single-threaded too. `build_basis`, the Wald maps (`infer_maps`,
    `wald_map`, `svc_variance`, `coef_covariance`) and `simulate_cube` pin
    the pool the same way; only a bare `project`, `backproject` or read of a
    factored basis's `.psi` keeps the caller's pool size.
    """
    if mode not in ("within", "without", "shuffled"):
        raise ValueError(f"unknown mode {mode!r}")
    check_count(n_splits, "n_splits")
    if not 0.0 < holdout_frac < 1.0:
        raise ValueError(f"holdout_frac must be in (0, 1), got {holdout_frac}")
    check_fit(fit, dataset)
    check_basis(fit, basis)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    record = projected(dataset, basis)
    ytilde, sq_norms = record.ytilde, record.sq_norms
    z = np.hstack([dataset.sites, dataset.controls, dataset.exposures])
    (n, width), L = z.shape, basis.L
    n_sites, p1 = dataset.sites.shape[1], dataset.exposures.shape[1]

    def sums(rows):
        zr = z[rows]
        return zr.T @ zr, zr.T @ ytilde[rows]

    def downdated(totals, rows):
        zr = z[rows]  # (B, m, c): each split's held-out rows
        zr_t = np.swapaxes(zr, 1, 2)
        return totals[0] - zr_t @ zr, totals[1] - zr_t @ ytilde[rows]

    labels = np.asarray(fit.labels, dtype=int)
    strata = [np.nonzero(labels == g)[0] for g in np.unique(labels)]
    n_hold = [max(1, int(round(holdout_frac * members.size))) for members in strata]
    subgroups = np.ones_like(labels) if mode == "without" else labels
    groups = np.unique(subgroups)
    total = sums(slice(None))
    if mode != "shuffled":  # "without" has one subgroup, of everyone: its totals are `total`
        group_totals = {g: total if mode == "without" else sums(subgroups == g) for g in groups}
    step = max(1, BLOCK // (8 * max(width * L, sum(n_hold) * L, n * width)))
    mses = np.empty(n_splits)
    fallbacks = 0
    for start in range(0, n_splits, step):
        count = min(step, n_splits - start)
        holdout = np.zeros((count, n), dtype=bool)
        fit_labels = np.tile(subgroups, (count, 1))
        for rep in range(count):
            for members, k in zip(strata, n_hold):
                holdout[rep, rng.permutation(members)[:k]] = True
            if mode == "shuffled":
                tr_idx = np.nonzero(~holdout[rep])[0]
                fit_labels[rep, tr_idx] = subgroups[rng.permutation(tr_idx)]
        held = _rows(holdout)
        pred = np.empty((count, held.shape[1], L))
        failed = {}  # split -> positions within its holdout of the subgroups that fell back
        for g in groups:
            test = _rows(holdout & (subgroups == g))
            train = _rows(~holdout & (fit_labels == g))
            if mode == "shuffled":  # relabelled training rows, summed afresh per split
                gram, cross = map(np.stack, zip(*(sums(rows) for rows in train)))
            else:
                gram, cross = downdated(group_totals[g], test)
            pred_g, errors = predict_from_sums(gram, cross, z[train], z[test], n_sites, p1, g)
            at = _rows(subgroups[held] == g)
            pred[np.arange(count)[:, None], at] = pred_g
            for rep in errors:
                failed.setdefault(rep, []).append(at[rep])
        if failed:
            reps = np.array(sorted(failed))
            without, errors = predict_from_sums(*downdated(total, held[reps]),
                                                z[_rows(~holdout[reps])], z[held[reps]],
                                                n_sites, p1)
            if errors:
                raise errors[min(errors)]
            for row, rep in enumerate(reps):
                for at in failed[rep]:
                    pred[rep, at] = without[row, at]
                    fallbacks += at.size
        mses[start:start + count] = _holdout_mse(sq_norms[held], ytilde[held], pred, basis.d)
    if fallbacks:
        logger.info("validate_projection mode=%s: %d holdout individuals fell "
                    "back to the without-subgroup fit", mode, fallbacks)
    return ValidationResult(mode=mode, mse=mses, unseen_fallbacks=fallbacks)
