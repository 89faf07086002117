"""Command-line frontend.

Subcommands: basis, simulate, fit, select, infer, metrics, validate,
reproduce. Every option can come from a ``--config`` key-value file, with
explicit flags taking precedence, and every run that writes artifacts also
writes a ``.manifest`` recording the resolved options, seed, config hash,
library versions and BLAS thread environment of the run.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__, _blas
from .basis import KernelParams, build_basis, select_h
from .baselines import kmlr_fit
from .bundles import load_basis, load_fit, load_truth, save_basis, save_fit, save_truth
from .inference import infer_maps
from .io import config_hash, read_config, write_kv
from .lattice import (build_lattice, lattice_from_volume, load_dataset,
                      save_dataset, save_volume_map)
from .metrics import match_groups, nmi, power_type1, validate_projection
from .selection import select_k
from .sem import SemConfig, fit_sem
from .simulate import SimConfig, simulate_cube
from .study import evaluate_fit, run_table2


class UsageError(Exception):
    """Missing or inconsistent command-line options (exit code 2)."""


def _parse_dims(text):
    if isinstance(text, tuple):
        return text
    parts = [p for chunk in str(text).split(",") for p in chunk.split()]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError(f"dims must have 1 or 3 components, got {text!r}")
    return tuple(int(p) for p in parts)


def _parse_bool(value):
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("1", "true", "yes", "on")


def _resolve(args, specs):
    """Merge hard defaults, config-file values, and explicit flags."""
    conf = read_config(args.config) if getattr(args, "config", None) else {}
    out = {}
    for dest, typ, default in specs:
        value = getattr(args, dest, None)
        if value is None and dest in conf:
            value = conf[dest]
        if value is None:
            value = default
        if value is not None and typ is not None:
            value = typ(value)
        out[dest] = value
    return out


def _write_manifest(primary_out, command, resolved):
    entries = [("command", command)]
    entries += [(k, v) for k, v in sorted(resolved.items()) if v is not None]
    entries += [
        ("config_hash", config_hash({k: v for k, v in resolved.items() if v is not None})),
        ("lasir_version", __version__),
        ("numpy_version", np.__version__),
        ("scipy_version", scipy.__version__),
        ("python_version", platform.python_version()),
    ]
    # the caller's pools: fits pin them to one thread and restore them on return
    entries += [(f"openblas_threads_{package}", size)
                for package, size in _blas.pool_sizes().items()]
    entries += [
        ("openblas_num_threads_env", os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
        ("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S")),
    ]
    write_kv(str(primary_out) + ".manifest", entries)


def _sem_config(res):
    return SemConfig(max_iter=res["max_iter"], tol=res["tol"],
                     restarts=res["restarts"], seed=res["seed"],
                     lambda_floor=res["lambda_floor"], threads=res["threads"])


def _load_inputs(res):
    lattice = lattice_from_volume(res["images"])
    dataset = load_dataset(res["images"], res["covariates"], lattice)
    basis = load_basis(res["basis"])
    if basis.d != lattice.d:
        raise ValueError(f"basis voxel count {basis.d} does not match lattice d={lattice.d}")
    return lattice, dataset, basis


FIT_SPECS = [
    ("images", str, None), ("covariates", str, None), ("basis", str, None),
    ("out", str, None), ("k", int, 3), ("method", str, "lasir"),
    ("restarts", int, 10), ("seed", int, 0), ("tol", float, 1e-4),
    ("max_iter", int, 200), ("lambda_floor", float, 1e-10),
    ("threads", int, None),
]


def cmd_basis(args):
    specs = [("a", float, 0.01), ("b", float, 2.0), ("h", int, None),
             ("h_ref", int, None), ("r0", float, None), ("dims", _parse_dims, None),
             ("lattice", str, None), ("out", str, None)]
    res = _resolve(args, specs)
    if res["out"] is None:
        raise UsageError("--out is required")
    if res["lattice"]:
        lattice = lattice_from_volume(res["lattice"])
    elif res["dims"]:
        lattice = build_lattice(res["dims"])
    else:
        raise UsageError("either --dims or --lattice is required")
    params = KernelParams(res["a"], res["b"])
    h = res["h"]
    if h is None:
        if res["h_ref"] is None or res["r0"] is None:
            raise UsageError("give --h, or both --h-ref and --r0")
        h = select_h(params, res["h_ref"], res["r0"])
    basis = build_basis(lattice, params, h)
    save_basis(basis, res["out"])
    _write_manifest(res["out"], "basis", {**res, "h": h})
    print(f"basis: L={basis.L} (h={h}) on d={lattice.d} voxels -> {res['out']}")
    return 0


def cmd_simulate(args):
    specs = [("out_dir", str, None), ("n", int, 500), ("dims", _parse_dims, (15, 15, 15)),
             ("sigma", float, 1.0), ("k", int, 3), ("seed", int, 0),
             ("sites", int, 21), ("null_exposure", _parse_bool, False),
             ("shared_intercept", _parse_bool, False), ("basis_degree", int, None)]
    res = _resolve(args, specs)
    if res["out_dir"] is None:
        raise UsageError("--out-dir is required")
    cfg = SimConfig(dims=res["dims"], n=res["n"], n_groups=res["k"],
                    sigma=res["sigma"], seed=res["seed"], n_sites=res["sites"],
                    null_exposure=res["null_exposure"],
                    shared_intercept=res["shared_intercept"],
                    basis_degree=res["basis_degree"])
    dataset, truth, lattice, basis = simulate_cube(cfg)
    out = res["out_dir"]
    os.makedirs(out, exist_ok=True)
    save_dataset(dataset, lattice, os.path.join(out, "images"),
                 os.path.join(out, "covariates.csv"))
    save_truth(truth, os.path.join(out, "truth"))
    save_basis(basis, os.path.join(out, "simbasis"))
    _write_manifest(os.path.join(out, "run"), "simulate", res)
    print(f"simulated n={dataset.n} individuals on d={lattice.d} voxels -> {out}/")
    return 0


def cmd_fit(args):
    res = _resolve(args, FIT_SPECS)
    for key in ("images", "covariates", "basis", "out"):
        if res[key] is None:
            raise UsageError(f"--{key} is required")
    if res["threads"] is None:
        res["threads"] = os.cpu_count() or 1
    lattice, dataset, basis = _load_inputs(res)
    config = _sem_config(res)
    method = res["method"]
    if method == "lasir":
        fit = fit_sem(dataset, basis, res["k"], config)
    elif method == "kmlr":
        fit = kmlr_fit(dataset, basis, res["k"], config)
    elif method == "svcm":
        fit = fit_sem(dataset, basis, 1, config)  # the K=1 reduction
        fit.method = "svcm"
    else:
        raise ValueError(f"unknown method {method!r}")
    save_fit(fit, res["out"])
    _write_manifest(res["out"], "fit", res)
    print(f"fit method={method} K={fit.params.n_groups} iterations={fit.iterations} "
          f"converged={fit.converged} -> {res['out']}")
    return 0


def cmd_select(args):
    specs = FIT_SPECS + [("k_min", int, 1), ("k_max", int, 4)]
    res = _resolve(args, specs)
    for key in ("images", "covariates", "basis"):
        if res[key] is None:
            raise UsageError(f"--{key} is required")
    if res["threads"] is None:
        res["threads"] = os.cpu_count() or 1
    lattice, dataset, basis = _load_inputs(res)
    candidates = range(res["k_min"], res["k_max"] + 1)
    best, records, fits = select_k(dataset, basis, candidates, _sem_config(res))
    lines = ["K,M,Q,BIC"]
    lines += [f"{r.n_groups},{r.n_params},{r.q:.6f},{r.bic:.6f}" for r in records]
    lines.append(f"chosen,{best},,")
    table = "\n".join(lines)
    print(table)
    if res["out"]:
        with open(res["out"], "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        save_fit(fits[best], res["out"] + ".bestfit")
        _write_manifest(res["out"], "select", res)
    return 0


def cmd_infer(args):
    specs = [("fit", str, None), ("images", str, None), ("covariates", str, None),
             ("basis", str, None), ("alpha", float, 0.05), ("out_prefix", str, None)]
    res = _resolve(args, specs)
    for key in ("fit", "images", "covariates", "basis", "out_prefix"):
        if res[key] is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
    lattice, dataset, basis = _load_inputs(res)
    fit = load_fit(res["fit"])
    maps = infer_maps(fit, dataset, basis, alpha=res["alpha"])
    for m in maps:
        base = f"{res['out_prefix']}_g{m.group}_x{m.exposure}"
        for name in ("effect", "se", "wald", "pval"):
            save_volume_map(getattr(m, name), lattice, f"{base}_{name}")
        save_volume_map(m.reject.astype(float), lattice, f"{base}_reject")
    _write_manifest(res["out_prefix"], "infer", res)
    print(f"wrote {len(maps)} (group, exposure) map sets under {res['out_prefix']}_*")
    return 0


def cmd_metrics(args):
    specs = [("fit", str, None), ("truth", str, None), ("images", str, None),
             ("covariates", str, None), ("basis", str, None),
             ("alpha", float, 0.05), ("out", str, None)]
    res = _resolve(args, specs)
    for key in ("fit", "truth", "images", "covariates", "basis"):
        if res[key] is None:
            raise UsageError(f"--{key} is required")
    lattice, dataset, basis = _load_inputs(res)
    fit = load_fit(res["fit"])
    truth = load_truth(res["truth"])
    rows = [("nmi", "", "", nmi(fit.labels, truth.labels))]
    n_groups = fit.params.n_groups
    if n_groups == truth.alpha.shape[0]:
        alpha_mse, beta_mse = evaluate_fit(fit.params, fit.labels, truth, basis, n_groups)
        rows += [("alpha_mse", "", "", alpha_mse), ("beta_mse", "", "", beta_mse)]
        perm = match_groups(fit.labels, truth.labels, n_groups)
    else:
        perm = np.minimum(np.arange(1, n_groups + 1), truth.alpha.shape[0])
    maps = infer_maps(fit, dataset, basis, alpha=res["alpha"])
    for m in maps:
        if m.exposure == 0:
            continue
        truth_map = truth.alpha[perm[m.group - 1] - 1, m.exposure]
        power, type1 = power_type1(m.reject, truth_map != 0.0)
        rows.append(("power", m.group, m.exposure, power))
        rows.append(("type1", m.group, m.exposure, type1))
    lines = ["metric,group,exposure,value"]
    lines += [f"{a},{b},{c},{'' if v is None else f'{v:.6f}'}" for a, b, c, v in rows]
    table = "\n".join(lines)
    print(table)
    if res["out"]:
        with open(res["out"], "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        _write_manifest(res["out"], "metrics", res)
    return 0


def cmd_validate(args):
    specs = [("fit", str, None), ("images", str, None), ("covariates", str, None),
             ("basis", str, None), ("mode", str, "all"), ("splits", int, 50),
             ("holdout", float, 0.05), ("seed", int, 0), ("out", str, None)]
    res = _resolve(args, specs)
    for key in ("fit", "images", "covariates", "basis"):
        if res[key] is None:
            raise UsageError(f"--{key} is required")
    lattice, dataset, basis = _load_inputs(res)
    fit = load_fit(res["fit"])
    modes = ("within", "without", "shuffled") if res["mode"] == "all" else (res["mode"],)
    lines = ["replicate,mode,mse"]
    for mode in modes:
        result = validate_projection(dataset, basis, fit, mode, n_splits=res["splits"],
                                     holdout_frac=res["holdout"], seed=res["seed"])
        lines += [f"{i},{mode},{v:.8f}" for i, v in enumerate(result.mse)]
        if result.unseen_fallbacks:
            lines.append(f"#,{mode},fallbacks={result.unseen_fallbacks}")
    table = "\n".join(lines)
    print(table)
    if res["out"]:
        with open(res["out"], "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        _write_manifest(res["out"], "validate", res)
    return 0


def cmd_reproduce(args):
    if args.what != "table2":
        raise ValueError(f"unknown study {args.what!r} (supported: table2)")
    specs = [("n", int, 500), ("dims", _parse_dims, (15, 15, 15)),
             ("sigma", float, 1.0), ("reps", int, 10), ("seed", int, 0),
             ("restarts", int, 6), ("threads", int, None), ("out", str, None)]
    res = _resolve(args, specs)
    if res["threads"] is None:
        res["threads"] = os.cpu_count() or 1
    rows, summary = run_table2(n=res["n"], dims=res["dims"], sigma=res["sigma"],
                               reps=res["reps"], seed=res["seed"],
                               restarts=res["restarts"], threads=res["threads"])
    header = list(rows[0].keys())
    lines = [",".join(header)]
    lines += [",".join(f"{row[k]:.6g}" if k != "rep" else str(row[k]) for k in header)
              for row in rows]
    lines.append(",".join(["mean"] + [f"{summary[k]:.6g}" for k in header[1:]]))
    table = "\n".join(lines)
    print(table)
    print()
    print(f"mean NMI: lasir={summary['nmi_lasir']:.3f} kmlr={summary['nmi_kmlr']:.3f}")
    print(f"mean beta-MSE: lasir={summary['beta_mse_lasir']:.4g} "
          f"kmlr={summary['beta_mse_kmlr']:.4g} svcm={summary['beta_mse_svcm']:.4g}")
    if res["out"]:
        with open(res["out"], "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        _write_manifest(res["out"], "reproduce", res)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="lasir",
                                     description="Latent-subgroup image-on-scalar regression")
    parser.add_argument("--version", action="version", version=f"lasir {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key-value config file; flags override")
        p.set_defaults(handler=handler)
        return p

    p = add("basis", cmd_basis, "build an orthonormal spatial basis")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--h", type=int)
    p.add_argument("--h-ref", dest="h_ref", type=int)
    p.add_argument("--r0", type=float)
    p.add_argument("--dims")
    p.add_argument("--lattice", help="volume bundle supplying dims and mask")
    p.add_argument("--out")

    p = add("simulate", cmd_simulate, "generate a synthetic dataset")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--n", type=int)
    p.add_argument("--dims")
    p.add_argument("--sigma", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sites", type=int)
    p.add_argument("--basis-degree", dest="basis_degree", type=int)
    p.add_argument("--null-exposure", dest="null_exposure", action="store_const", const=True)
    p.add_argument("--shared-intercept", dest="shared_intercept", action="store_const", const=True)

    def add_fit_flags(p, with_method=True):
        p.add_argument("--images")
        p.add_argument("--covariates")
        p.add_argument("--basis")
        p.add_argument("--out")
        p.add_argument("--restarts", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--lambda-floor", dest="lambda_floor", type=float)
        p.add_argument("--threads", type=int)
        if with_method:
            p.add_argument("--k", type=int)
            p.add_argument("--method", choices=["lasir", "kmlr", "svcm"])

    p = add("fit", cmd_fit, "fit the model (lasir, kmlr, or svcm)")
    add_fit_flags(p)

    p = add("select", cmd_select, "choose the number of subgroups by BIC")
    add_fit_flags(p, with_method=False)
    p.add_argument("--k-min", dest="k_min", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)

    p = add("infer", cmd_infer, "voxelwise Wald maps with FDR decisions")
    p.add_argument("--fit")
    p.add_argument("--images")
    p.add_argument("--covariates")
    p.add_argument("--basis")
    p.add_argument("--alpha", type=float)
    p.add_argument("--out-prefix", dest="out_prefix")

    p = add("metrics", cmd_metrics, "evaluate a fit against simulation truth")
    for flag in ("--fit", "--truth", "--images", "--covariates", "--basis", "--out"):
        p.add_argument(flag)
    p.add_argument("--alpha", type=float)

    p = add("validate", cmd_validate, "projected-prediction validation")
    for flag in ("--fit", "--images", "--covariates", "--basis", "--out"):
        p.add_argument(flag)
    p.add_argument("--mode", choices=["within", "without", "shuffled", "all"])
    p.add_argument("--splits", type=int)
    p.add_argument("--holdout", type=float)
    p.add_argument("--seed", type=int)

    p = add("reproduce", cmd_reproduce, "run a packaged desk-scale study")
    p.add_argument("what", choices=["table2"])
    p.add_argument("--n", type=int)
    p.add_argument("--dims")
    p.add_argument("--sigma", type=float)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
