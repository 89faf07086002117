"""Voxelwise inference on the group-specific exposure effects.

Within group k, the fitted basis coefficients of the exposure design have
covariance ``Lambda (x) (X_k^T X_k)^{-1}`` (Kronecker), so the spatially
varying coefficient for exposure j at voxel v has variance

    Var(alpha_kj(v)) = [(X_k^T X_k)^{-1}]_{jj} * sum_l lam_l psi_l(v)^2,

the diagonal of the composed covariance. The Wald statistic |effect| / se
refers to a standard normal, giving two-sided p-values per voxel, and the
p-value image is corrected by Benjamini-Hochberg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .basis import BasisSystem
from .lattice import Dataset
from .projection import backproject
from .sem import FitResult


@dataclass
class CoefCovariance:
    """Per-group inverse exposure Gram matrices plus the shared variances."""

    gram_inv: np.ndarray  # (K, p+1, p+1)
    lam: np.ndarray       # (L,)


@dataclass
class InferenceMap:
    """Voxelwise inference for one (group, exposure) pair.

    `reject` is filled once an FDR level has been applied; it is None for a
    bare Wald map.
    """

    group: int
    exposure: int
    effect: np.ndarray
    se: np.ndarray
    wald: np.ndarray
    pval: np.ndarray
    reject: np.ndarray = None


def coef_covariance(fit: FitResult, dataset: Dataset) -> CoefCovariance:
    """Sampling covariance data of the group-specific coefficients.

    Raises ValueError naming the group when it is empty or its exposure
    Gram matrix is singular.
    """
    K = fit.params.n_groups
    p1 = dataset.exposures.shape[1]
    gram_inv = np.empty((K, p1, p1))
    for k in range(1, K + 1):
        rows = fit.labels == k
        if not rows.any():
            raise ValueError(f"group {k} is empty")
        gram = dataset.exposures[rows].T @ dataset.exposures[rows]
        s = np.linalg.svd(gram, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise ValueError(f"singular exposure Gram matrix for group {k}")
        gram_inv[k - 1] = np.linalg.inv(gram)
    return CoefCovariance(gram_inv=gram_inv, lam=fit.params.lam.copy())


FIELD_BLOCK = 1 << 20  # basis entries squared at a time by `_variance_field`


def _variance_field(basis: BasisSystem, lam: np.ndarray) -> np.ndarray:
    """sum_l lam_l psi_l(v)^2 for every voxel (d,), in row blocks of about
    `FIELD_BLOCK` basis entries so that no d x L temporary is allocated.

    Blocks are whole multiples of 64 rows, so a one-thread BLAS groups the
    rows as in the unblocked product and the field matches it bit for bit.
    """
    psi = basis.psi
    rows = max(64, FIELD_BLOCK // psi.shape[1] // 64 * 64)
    field = np.empty(psi.shape[0])
    for start in range(0, psi.shape[0], rows):
        block = psi[start:start + rows]
        field[start:start + rows] = (block * block) @ lam
    return field


def svc_variance(cov: CoefCovariance, basis: BasisSystem, group: int,
                 exposure: int) -> np.ndarray:
    """Voxelwise variance of the (group, exposure) coefficient map (d,).

    Invariant to basis column sign flips since only psi^2 enters.
    """
    return cov.gram_inv[group - 1, exposure, exposure] * _variance_field(basis, cov.lam)


def wald_map(fit: FitResult, dataset: Dataset, basis: BasisSystem,
             group: int, exposure: int, cov: CoefCovariance = None) -> InferenceMap:
    """Effect, standard error, Wald statistic, and two-sided p-value maps."""
    if cov is None:
        cov = coef_covariance(fit, dataset)
    return _wald(fit, basis, group, exposure, svc_variance(cov, basis, group, exposure))


def _wald(fit, basis, group, exposure, variance) -> InferenceMap:
    effect = backproject(fit.params.theta_alpha[group - 1, exposure], basis)[0]
    se = np.sqrt(variance)
    wald = np.abs(effect) / se
    pval = 2.0 * norm.sf(wald)
    return InferenceMap(group=group, exposure=exposure, effect=effect,
                        se=se, wald=wald, pval=pval)


def fdr_bh(pvals: np.ndarray, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg step-up decisions.

    Sort the m p-values ascending, find the largest i with
    ``p_(i) <= i * alpha / m``, and reject every p-value up to p_(i);
    nothing is rejected when no such i exists. The rejection set grows
    monotonically with alpha.
    """
    pvals = np.asarray(pvals, dtype=float)
    if pvals.ndim != 1:
        raise ValueError("pvals must be a vector")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    m = pvals.size
    order = np.argsort(pvals, kind="stable")
    ranked = pvals[order]
    passing = np.nonzero(ranked <= alpha * np.arange(1, m + 1) / m)[0]
    if passing.size == 0:
        return np.zeros(m, dtype=bool)
    cutoff = ranked[passing[-1]]
    return pvals <= cutoff


def infer_maps(fit: FitResult, dataset: Dataset, basis: BasisSystem,
               alpha: float = 0.05):
    """All (group, exposure) inference maps with BH decisions at `alpha`.

    Each (group, exposure) p-value image is corrected on its own. The voxel
    variance field sum_l lam_l psi_l^2 is computed once and scaled by each
    pair's [(X_k^T X_k)^-1]_jj. Returns a list of InferenceMap ordered by
    group then exposure.
    """
    cov = coef_covariance(fit, dataset)
    field = _variance_field(basis, cov.lam)
    maps = []
    for k in range(1, fit.params.n_groups + 1):
        for j in range(dataset.exposures.shape[1]):
            m = _wald(fit, basis, k, j, cov.gram_inv[k - 1, j, j] * field)
            m.reject = fdr_bh(m.pval, alpha)
            maps.append(m)
    return maps
