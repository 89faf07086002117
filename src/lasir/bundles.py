"""Matrix-bundle serialization of basis systems, fits, and simulation truth.

Every save and load goes through `io.write_matrix_bundle` and
`io.read_matrix_bundle`: a save replaces the old bundle only once the new
one is written in full, and the matrices of a loaded basis, fit or truth are
copy-on-write views of its mapped payload, read from the file when first
touched.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .basis import BasisSystem, KernelParams
from .io import read_matrix_bundle, write_matrix_bundle
from .lattice import GroundTruth, read_mask, write_mask
from .sem import FitResult, ModelParams


def save_basis(basis: BasisSystem, prefix) -> None:
    """Write a basis bundle: version 2 for a factored basis, version 1 for an
    explicit psi.

    Version 2 stores the factors `phi_x`, `phi_y`, `phi_z`, `T` and `eigvals`
    as matrices and the mask as ``<prefix>.mask``, one byte (0/1) per grid
    cell, x-fastest, as volume bundles store it; version 1 stores `psi` and
    `eigvals`.
    """
    prefix = str(prefix)
    meta = {"kind": "basis", "a": basis.params.a, "b": basis.params.b,
            "h": basis.h, "L": basis.L, "d": basis.d}
    if basis.factors is None:
        write_matrix_bundle(prefix, OrderedDict(psi=basis.psi, eigvals=basis.eigvals),
                            meta=meta)
        return
    fx, fy, fz = basis.factors
    write_matrix_bundle(prefix, OrderedDict(phi_x=fx, phi_y=fy, phi_z=fz, T=basis.T,
                                            eigvals=basis.eigvals),
                        meta={**meta, "version": 2,
                              "dims": " ".join(str(m) for m in basis.mask.shape),
                              "mask": write_mask(basis.mask, prefix)})


def load_basis(prefix) -> BasisSystem:
    """Read a basis bundle of either version."""
    prefix = str(prefix)
    mats, meta = read_matrix_bundle(prefix)
    if meta.get("kind") != "basis":
        raise ValueError(f"{prefix}: not a basis bundle")
    params = KernelParams(float(meta["a"]), float(meta["b"]))
    eigvals, h = mats["eigvals"].ravel(), int(meta["h"])
    version = meta.get("version", "1")
    if version == "1":
        return BasisSystem(psi=mats["psi"], eigvals=eigvals, h=h, params=params)
    if version != "2":
        raise ValueError(f"{prefix}: unsupported basis bundle version {version!r}")
    dims = tuple(int(t) for t in meta["dims"].split())
    return BasisSystem(eigvals=eigvals, h=h, params=params,
                       factors=(mats["phi_x"], mats["phi_y"], mats["phi_z"]),
                       mask=read_mask(prefix, meta["mask"], dims), T=mats["T"])


def save_fit(fit: FitResult, prefix) -> None:
    """Write a fit bundle; the fit's basis record (`FitResult.basis`), when
    it has one, is stored as ``basis_<key>`` metadata."""
    p = fit.params
    K, p1, L = p.theta_alpha.shape
    mats = OrderedDict(
        theta_alpha=p.theta_alpha.reshape(K * p1, L),
        theta_eta=p.theta_eta,
        theta_gamma=p.theta_gamma,
        lam=p.lam,
        w=p.w,
        responsibilities=fit.responsibilities,
        labels=fit.labels.astype(float),
        q_trace=np.asarray(fit.q_trace, dtype=float),
    )
    write_matrix_bundle(prefix, mats, meta={
        "kind": "fit", "K": K, "p1": p1, "L": L,
        "seed": fit.seed, "converged": int(fit.converged),
        "iterations": fit.iterations, "method": fit.method,
        "replicate": fit.replicate,
        **{f"basis_{key}": value for key, value in (fit.basis or {}).items()},
    })


def load_fit(prefix) -> FitResult:
    """Read a fit bundle, with its basis record when it has one; bundles
    written before fits recorded their basis load with `basis` None. A
    bundle stores no M-step sums, so the params have no `rss` or
    `log_prior`, and `sem.q_value` raises on them."""
    mats, meta = read_matrix_bundle(prefix)
    if meta.get("kind") != "fit":
        raise ValueError(f"{prefix}: not a fit bundle")
    K, p1, L = int(meta["K"]), int(meta["p1"]), int(meta["L"])
    params = ModelParams(
        theta_alpha=mats["theta_alpha"].reshape(K, p1, L),
        theta_eta=mats["theta_eta"],
        theta_gamma=mats["theta_gamma"],
        lam=mats["lam"].ravel(),
        w=mats["w"],
    )
    return FitResult(params=params,
                     responsibilities=mats["responsibilities"],
                     labels=mats["labels"].ravel().astype(int),
                     q_trace=mats["q_trace"].ravel(),
                     converged=bool(int(meta["converged"])),
                     seed=int(meta["seed"]),
                     iterations=int(meta["iterations"]),
                     method=meta.get("method", "lasir"),
                     replicate=int(meta.get("replicate", 0)),
                     basis={key[len("basis_"):]: value for key, value in meta.items()
                            if key.startswith("basis_")} or None)


def save_truth(truth: GroundTruth, prefix) -> None:
    K, p1, d = truth.alpha.shape
    mats = OrderedDict(
        labels=truth.labels.astype(float),
        alpha=truth.alpha.reshape(K * p1, d),
        gamma=truth.gamma,
        eta=truth.eta,
        gating=truth.gating,
    )
    write_matrix_bundle(prefix, mats, meta={"kind": "truth", "K": K, "p1": p1})


def load_truth(prefix) -> GroundTruth:
    mats, meta = read_matrix_bundle(prefix)
    if meta.get("kind") != "truth":
        raise ValueError(f"{prefix}: not a truth bundle")
    K, p1 = int(meta["K"]), int(meta["p1"])
    return GroundTruth(labels=mats["labels"].ravel().astype(int),
                       alpha=mats["alpha"].reshape(K, p1, -1),
                       gamma=mats["gamma"], eta=mats["eta"], gating=mats["gating"])
