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

# Below this many subjects a candidate's restarts run as one stack whatever
# `threads`: the EM steps are small numpy calls that hold the GIL, and stacks
# on threads only take turns. Wall time of K=1..3, 4 restarts, on 2 CPUs: two
# stacks broke even with one near n=1000 at L=220 (0.11 s against 0.07 s at
# n=300, 0.63 s against 1.18 s at n=12000), near n=600 at L=455, and between
# n=1200 and n=3000 at L=56.
THREADED_N = 1000


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
    smaller K. With at least `THREADED_N` subjects each candidate's
    replicates run in `config.threads` stacks, as in `fit_sem`; with fewer
    they run as one stack on the calling thread, where threads would only
    contend for the GIL. The results are the same for any `threads`. BLAS
    is pinned to one thread, as in `fit_sem`. Every candidate must be an
    integer >= 1 and listed once, checked before the projection is read,
    else ValueError naming it.

    Returns
    -------
    (best_k, records, fits) : (int, list of BicRecord, dict K -> FitResult)
    """
    config = config or SemConfig()
    k_candidates = list(k_candidates)
    if not k_candidates:
        raise ValueError("no candidate group counts")
    for i, K in enumerate(k_candidates):
        if not isinstance(K, numbers.Integral) or K < 1:
            raise ValueError(f"candidate group counts must be integers >= 1, got {K!r}")
        if K in k_candidates[:i]:
            raise ValueError("candidate group counts must be integers >= 1, each listed once, "
                             f"got {K!r} twice")
    problem = prepare(projected(dataset, basis).ytilde, dataset)
    stacked = replace(config, threads=config.threads if dataset.n >= THREADED_N else 1)
    records, fits = [], {}
    for K in k_candidates:
        try:
            fit = fit_problem(problem, K, replace(stacked, seed=config.seed * 1000 + K))
        except RuntimeError as exc:
            logger.warning("candidate K=%d excluded: %s", K, exc)
            continue
        M = param_count(K, basis.L, dataset.p, dataset.q, dataset.n_sites)
        q = float(fit.q_trace[-1])
        records.append(BicRecord(K, M, q, bic=M * math.log(dataset.n * basis.L) - 2.0 * q))
        fits[K] = fit
    if not records:
        raise RuntimeError("no viable fit for any candidate K")
    return _choose(records).n_groups, records, fits
