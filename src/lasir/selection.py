"""Choosing the number of subgroups by BIC."""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .projection import projected
from .sem import SemConfig, fit_problem, prepare

logger = logging.getLogger(__name__)


@dataclass
class BicRecord:
    """One model-size candidate: parameter count M, objective Q, and BIC."""

    n_groups: int
    n_params: int
    q: float
    bic: float


def param_count(n_groups: int, L: int, p: int, q: int, n_sites: int) -> int:
    """Total parameter count M = KL(p+1) + (S+q)L + (K-1)(q+1) + L.

    The terms are the free entries of a fitted `ModelParams`: group-specific
    exposure coefficients, shared site and control coefficients, gating
    weights without the reference row, and the one set of diagonal noise
    variances that all groups share.
    """
    K = n_groups
    return K * L * (p + 1) + (n_sites + q) * L + (K - 1) * (q + 1) + L


def _choose(records):
    """Lowest BIC; ties break toward fewer groups."""
    return min(records, key=lambda r: (r.bic, r.n_groups))


@_blas.single_thread
def select_k(dataset: Dataset, basis: BasisSystem, k_candidates,
             config: SemConfig = None):
    """Fit every candidate group count and pick the BIC minimizer.

    The dataset's projection record on `basis` (`projection.projected`) is
    read, made if need be, and stage 1 solved once; each candidate then
    runs the `fit_sem` loop on that prepared problem with its own
    deterministic seed derived from the config seed, and BIC(K) =
    M log(nL) - 2Q uses the winning replicate's final Q. Candidates whose
    replicates all fail are excluded with a warning; ties break toward
    smaller K. BLAS is pinned to one thread, as in `fit_sem`. Every
    candidate must be an integer >= 1, checked before the projection is
    read, else ValueError naming it.

    Returns
    -------
    (best_k, records, fits) : (int, list of BicRecord, dict K -> FitResult)
    """
    config = config or SemConfig()
    k_candidates = list(k_candidates)
    if not k_candidates:
        raise ValueError("no candidate group counts")
    for K in k_candidates:
        if not isinstance(K, numbers.Integral) or K < 1:
            raise ValueError(f"candidate group counts must be integers >= 1, got {K!r}")
    problem = prepare(projected(dataset, basis).ytilde, dataset)
    records, fits = [], {}
    for K in k_candidates:
        cand_config = replace(config, seed=config.seed * 1000 + K)
        try:
            fit = fit_problem(problem, K, cand_config)
        except RuntimeError as exc:
            logger.warning("candidate K=%d excluded: %s", K, exc)
            continue
        M = param_count(K, basis.L, dataset.p, dataset.q, dataset.n_sites)
        q_final = float(fit.q_trace[-1])
        bic = M * math.log(dataset.n * basis.L) - 2.0 * q_final
        records.append(BicRecord(n_groups=K, n_params=M, q=q_final, bic=bic))
        fits[K] = fit
    if not records:
        raise RuntimeError("no viable fit for any candidate K")
    best = _choose(records)
    return best.n_groups, records, fits
