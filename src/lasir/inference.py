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

from . import _blas
from .basis import BasisSystem, pair_products, tensor_degrees
from .lattice import Dataset
from .linmodel import check_design
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

    Raises ValueError naming the group when its exposure rows fail
    `linmodel.check_design`, the rank test of stage 2: fewer rows than
    exposure columns (an empty group, say) or a rank-deficient design.
    """
    K = fit.params.n_groups
    p1 = dataset.exposures.shape[1]
    gram_inv = np.empty((K, p1, p1))
    for k in range(1, K + 1):
        X = dataset.exposures[fit.labels == k]
        try:
            check_design(X)
        except ValueError as exc:
            raise ValueError(f"group {k}: {exc}") from exc
        gram_inv[k - 1] = np.linalg.inv(X.T @ X)
    return CoefCovariance(gram_inv=gram_inv, lam=fit.params.lam.copy())


def _variance_field(basis: BasisSystem, lam: np.ndarray) -> np.ndarray:
    """sum_l lam_l psi_l(v)^2 for every voxel (d,).

    For a factored basis this is the diagonal of Phi S Phi' with
    S = T diag(lam) T', contracted over x, then y, then z on the grid of
    planes the mask meets. An explicit psi is squared in the row blocks of
    `BasisSystem.psi_blocks`, so that no d x L temporary is allocated; blocks
    are whole multiples of 64 rows, so a one-thread BLAS groups the rows as
    in the unblocked product and the field matches it bit for bit.
    """
    if basis.factors is None:
        field = np.empty(basis.d)
        for rows, block in basis.psi_blocks():
            field[rows] = (block * block) @ lam
        return field
    layout = basis.layout
    fx, fy, fz = layout.factors
    mx, my = fx.shape[0], fy.shape[0]
    H = basis.h + 1
    a, b, c = tensor_degrees(basis.h).T
    cb, pair = np.unique(c * H + b, return_inverse=True)  # (c, b) of each column
    n = cb.size
    s = np.zeros((n, n, H, H))
    s[pair[:, None], pair, a[:, None], a] = basis.T * lam @ basis.T.T
    t = (s.reshape(n * n, H * H) @ pair_products(fx).T).reshape(n, n, mx)  # (c b, c' b', x)
    cube = np.zeros((H, H, H, H, mx))
    cube[cb[:, None] // H, cb // H, cb[:, None] % H, cb % H] = t           # (c, c', b, b', x)
    t = pair_products(fy) @ cube.reshape(H * H, H * H, mx)                 # (c c', y, x)
    t = pair_products(fz) @ t.reshape(H * H, my * mx)                      # (z, y x)
    return t.ravel()[layout.cells]


def svc_variance(cov: CoefCovariance, basis: BasisSystem, group: int,
                 exposure: int) -> np.ndarray:
    """Voxelwise variance of the (group, exposure) coefficient map (d,).

    Invariant to basis column sign flips since only psi^2 enters.
    """
    return cov.gram_inv[group - 1, exposure, exposure] * _variance_field(basis, cov.lam)


def wald_map(fit: FitResult, dataset: Dataset, basis: BasisSystem,
             group: int, exposure: int) -> InferenceMap:
    """Effect, standard error, Wald statistic, and two-sided p-value maps of
    one (group, exposure) pair, with the covariance from `coef_covariance`."""
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


@_blas.single_thread
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
