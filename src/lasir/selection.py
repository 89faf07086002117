"""Choosing the number of subgroups by BIC."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from . import _blas
from .basis import BasisSystem
from .lattice import Dataset
from .projection import project
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
    """Total parameter count M = KL(p+1) + KL + (S+q)L + (K-1)(q+1) + L.

    The terms are: group-specific exposure coefficients, per-group diagonal
    variances, shared site and control coefficients, free gating weights,
    and the shared diagonal variances.
    """
    K = n_groups
    return K * L * (p + 1) + K * L + (n_sites + q) * L + (K - 1) * (q + 1) + L


def _choose(records):
    """Lowest BIC; ties break toward fewer groups."""
    best = None
    for rec in sorted(records, key=lambda r: r.n_groups):
        if best is None or rec.bic < best.bic:
            best = rec
    return best


@_blas.single_thread
def select_k(dataset: Dataset, basis: BasisSystem, k_candidates,
             config: SemConfig = None):
    """Fit every candidate group count and pick the BIC minimizer.

    The images are projected and stage 1 solved once; each candidate then
    runs the `fit_sem` loop on that prepared problem with its own
    deterministic seed derived from the config seed, and BIC(K) =
    M log(nL) - 2Q uses the winning replicate's final Q. Candidates whose
    replicates all fail are excluded with a warning; ties break toward
    smaller K. BLAS is pinned to one thread, as in `fit_sem`.

    Returns
    -------
    (best_k, records, fits) : (int, list of BicRecord, dict K -> FitResult)
    """
    config = config or SemConfig()
    k_candidates = list(k_candidates)
    if not k_candidates:
        raise ValueError("no candidate group counts")
    problem = prepare(project(dataset.images, basis), dataset)
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
