"""Command-line frontend.

Subcommands: basis, simulate, fit, select, infer, metrics, validate,
reproduce. The option table ``COMMANDS`` is the single place an option is
declared: each subcommand lists its options there once, and the flags
(``--`` plus the name with ``-`` for ``_``), the config-file keys (the
names), the defaults, the required checks and the manifest entries all come
from that list. Every option can come from a ``--config`` key-value file,
with explicit flags taking precedence, and every run that writes artifacts
also writes a ``.manifest`` recording the resolved options, seed, config
hash, library versions and BLAS thread environment of the run. A manifest
is itself a valid ``--config`` file for the subcommand that wrote it.

Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import os
import platform
import sys
import time
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__, _blas
from .basis import KernelParams, build_basis, select_h
from .baselines import kmlr_fit
from .bundles import load_basis, load_fit, load_truth, save_basis, save_fit, save_truth
from .inference import infer_maps
from .io import config_hash, read_kv, write_kv
from .lattice import (build_lattice, lattice_from_volume, load_dataset,
                      save_dataset, save_volume_map)
from .metrics import match_groups, nmi, power_type1, validate_projection
from .selection import THREADED_N, select_k
from .sem import SemConfig, check_basis, fit_sem
from .simulate import KERNEL, SimConfig, simulate_cube
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
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean (1/true/yes/on or 0/false/no/off), got {value!r}")


class Option(NamedTuple):
    """One option: flag ``--<dest with - for _>``, config key ``<dest>``.

    `type` converts a flag, config or default value; `_parse_bool` options
    are bare flags and `_parse_dims` options stay text until resolved. A
    `positional` option is a positional argument named ``<dest>``, optional
    on the command line so that a config file (a manifest) can supply it.
    """

    dest: str
    type: Callable = str
    default: object = None
    required: bool = False
    choices: tuple = None
    help: str = None
    positional: bool = False

    @property
    def flag(self):
        return self.dest if self.positional else "--" + self.dest.replace("_", "-")


def _resolve(args, options):
    """Each option's value: its flag, else its config key, else its default."""
    conf = read_kv(args.config) if args.config else {}
    res = {}
    for opt in options:
        value = getattr(args, opt.dest)
        if value is None:
            value = conf.get(opt.dest, opt.default)
        if value is not None:
            value = opt.type(value)
        if opt.choices and value is not None and value not in opt.choices:
            raise ValueError(f"{opt.flag} must be one of {', '.join(opt.choices)}, "
                             f"got {value!r}")
        res[opt.dest] = value
    missing = [opt.flag for opt in options if opt.required and res[opt.dest] is None]
    if missing:
        raise UsageError(f"{missing[0]} is required")
    return res


def _write_manifest(primary_out, command, resolved):
    # tuples (dims) as space-separated text, so the manifest reads back as a config
    options = {k: " ".join(map(str, v)) if isinstance(v, tuple) else v
               for k, v in sorted(resolved.items()) if v is not None}
    entries = [("command", command), *options.items()]
    entries += [
        ("config_hash", config_hash(options)),
        ("lasir_version", __version__),
        ("numpy_version", np.__version__),
        ("scipy_version", scipy.__version__),
        ("python_version", platform.python_version()),
    ]
    # the caller's pools: fits pin them to one thread and restore them on return
    entries += [(f"openblas_threads_{package}", size)
                for package, size in _blas.pool_sizes().items()]
    # the threads that long volume reads and projections are dealt to
    entries.append(("cpus_allowed", _blas.allowed_cpus()))
    entries += [
        ("openblas_num_threads_env", os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
        ("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S")),
    ]
    write_kv(str(primary_out) + ".manifest", entries)


def _emit(table, res, command):
    """Print a result table; with --out, also write it and its manifest."""
    print(table)
    if res["out"]:
        with open(res["out"], "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        _write_manifest(res["out"], command, res)


def _sem_config(res):
    return SemConfig(**{opt.dest: res[opt.dest] for opt in SEM})


def _load_inputs(res):
    dataset = load_dataset(res["images"], res["covariates"])
    lattice = dataset.image_source.lattice
    basis = load_basis(res["basis"])
    basis.check_lattice(lattice)
    return lattice, dataset, basis


def _load_fit(res, basis):
    """The --fit bundle, refused unless it belongs to --basis (`check_basis`)."""
    fit = load_fit(res["fit"])
    check_basis(fit, basis)
    return fit


def cmd_basis(res):
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


def cmd_simulate(res):
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


def cmd_fit(res):
    lattice, dataset, basis = _load_inputs(res)
    config = _sem_config(res)
    method = res["method"]
    if method == "lasir":
        fit = fit_sem(dataset, basis, res["k"], config)
    elif method == "kmlr":
        fit = kmlr_fit(dataset, basis, res["k"], config)
    else:
        fit = fit_sem(dataset, basis, 1, config)  # svcm: the K=1 reduction
        fit.method = "svcm"
    fit.basis = basis.identity()
    save_fit(fit, res["out"])
    _write_manifest(res["out"], "fit", res)
    print(f"fit method={method} K={fit.params.n_groups} iterations={fit.iterations} "
          f"converged={fit.converged} -> {res['out']}")


def cmd_select(res):
    lattice, dataset, basis = _load_inputs(res)
    candidates = range(res["k_min"], res["k_max"] + 1)
    best, records, fits = select_k(dataset, basis, candidates, _sem_config(res))
    lines = ["K,M,Q,BIC"]
    lines += [f"{r.n_groups},{r.n_params},{r.q:.6f},{r.bic:.6f}" for r in records]
    lines.append(f"chosen,{best},,")
    _emit("\n".join(lines), res, "select")
    if res["out"]:
        fits[best].basis = basis.identity()
        save_fit(fits[best], res["out"] + ".bestfit")


def cmd_infer(res):
    lattice, dataset, basis = _load_inputs(res)
    fit = _load_fit(res, basis)
    maps = infer_maps(fit, dataset, basis, alpha=res["alpha"])
    for m in maps:
        base = f"{res['out_prefix']}_g{m.group}_x{m.exposure}"
        for name in ("effect", "se", "wald", "pval"):
            save_volume_map(getattr(m, name), lattice, f"{base}_{name}")
        save_volume_map(m.reject.astype(float), lattice, f"{base}_reject")
    _write_manifest(res["out_prefix"], "infer", res)
    print(f"wrote {len(maps)} (group, exposure) map sets under {res['out_prefix']}_*")


def cmd_metrics(res):
    lattice, dataset, basis = _load_inputs(res)
    fit = _load_fit(res, basis)
    truth = load_truth(res["truth"])
    rows = [("nmi", "", "", nmi(fit.labels, truth.labels))]
    n_groups, n_true = fit.params.n_groups, truth.alpha.shape[0]
    if n_groups == n_true:
        alpha_mse, beta_mse = evaluate_fit(fit.params, fit.labels, truth, basis)
        rows += [("alpha_mse", "", "", alpha_mse), ("beta_mse", "", "", beta_mse)]
    perm = match_groups(fit.labels, truth.labels, n_groups)
    maps = infer_maps(fit, dataset, basis, alpha=res["alpha"])
    for m in maps:
        if m.exposure == 0 or perm[m.group - 1] > n_true:  # no true group to score against
            continue
        truth_map = truth.alpha[perm[m.group - 1] - 1, m.exposure]
        power, type1 = power_type1(m.reject, truth_map != 0.0)
        rows.append(("power", m.group, m.exposure, power))
        rows.append(("type1", m.group, m.exposure, type1))
    lines = ["metric,group,exposure,value"]
    lines += [f"{a},{b},{c},{'' if v is None else f'{v:.6f}'}" for a, b, c, v in rows]
    _emit("\n".join(lines), res, "metrics")


def cmd_validate(res):
    lattice, dataset, basis = _load_inputs(res)
    fit = _load_fit(res, basis)
    modes = ("within", "without", "shuffled") if res["mode"] == "all" else (res["mode"],)
    lines = ["replicate,mode,mse"]
    for mode in modes:
        result = validate_projection(dataset, basis, fit, mode, n_splits=res["splits"],
                                     holdout_frac=res["holdout"], seed=res["seed"])
        lines += [f"{i},{mode},{v:.8f}" for i, v in enumerate(result.mse)]
        if result.unseen_fallbacks:
            lines.append(f"#,{mode},fallbacks={result.unseen_fallbacks}")
    _emit("\n".join(lines), res, "validate")


def cmd_reproduce(res):
    rows, summary = run_table2(n=res["n"], dims=res["dims"], sigma=res["sigma"],
                               reps=res["reps"], seed=res["seed"],
                               restarts=res["restarts"], threads=res["threads"])
    header = list(rows[0].keys())
    lines = [",".join(header)]
    lines += [",".join(f"{row[k]:.6g}" if k != "rep" else str(row[k]) for k in header)
              for row in rows]
    lines.append(",".join(["mean"] + [f"{summary[k]:.6g}" for k in header[1:]]))
    _emit("\n".join(lines), res, "reproduce")
    print()
    print(f"mean NMI: lasir={summary['nmi_lasir']:.3f} kmlr={summary['nmi_kmlr']:.3f}")
    print(f"mean beta-MSE: lasir={summary['beta_mse_lasir']:.4g} "
          f"kmlr={summary['beta_mse_kmlr']:.4g} svcm={summary['beta_mse_svcm']:.4g}")


DATA = [Option("images", required=True), Option("covariates", required=True),
        Option("basis", required=True)]
SEM = [Option("restarts", int, SemConfig.restarts), Option("seed", int, SemConfig.seed),
       Option("tol", float, SemConfig.tol), Option("max_iter", int, SemConfig.max_iter),
       Option("threads", int, SemConfig.threads, help="replicate stacks run at once "
              f"(select: one stack per candidate below {THREADED_N} subjects)")]
CUBE = [Option("n", int, SimConfig.n), Option("dims", _parse_dims, SimConfig.dims),
        Option("sigma", float, SimConfig.sigma)]
TABLE2 = inspect.signature(run_table2).parameters  # reproduce's defaults
VALIDATE = inspect.signature(validate_projection).parameters
ALPHA = Option("alpha", float, inspect.signature(infer_maps).parameters["alpha"].default)
FIT = Option("fit", required=True)

# subcommand -> (handler, help, options); options are listed in --help order
COMMANDS = {
    "basis": (cmd_basis, "build an orthonormal spatial basis", [
        Option("a", float, KERNEL.a), Option("b", float, KERNEL.b), Option("h", int),
        Option("h_ref", int), Option("r0", float), Option("dims", _parse_dims),
        Option("lattice", help="volume bundle supplying dims and mask"),
        Option("out", required=True)]),
    "simulate": (cmd_simulate, "generate a synthetic dataset", [
        Option("out_dir", required=True), *CUBE, Option("k", int, SimConfig.n_groups),
        Option("seed", int, SimConfig.seed), Option("sites", int, SimConfig.n_sites),
        Option("basis_degree", int),
        Option("null_exposure", _parse_bool, False),
        Option("shared_intercept", _parse_bool, False)]),
    "fit": (cmd_fit, "fit the model (lasir, kmlr, or svcm)", [
        *DATA, Option("out", required=True), *SEM, Option("k", int, 3),
        Option("method", default="lasir", choices=("lasir", "kmlr", "svcm"))]),
    "select": (cmd_select, "choose the number of subgroups by BIC", [
        *DATA, Option("out"), *SEM, Option("k_min", int, 1), Option("k_max", int, 4)]),
    "infer": (cmd_infer, "voxelwise Wald maps with FDR decisions", [
        FIT, *DATA, ALPHA, Option("out_prefix", required=True)]),
    "metrics": (cmd_metrics, "evaluate a fit against simulation truth", [
        FIT, Option("truth", required=True), *DATA, Option("out"), ALPHA]),
    "validate": (cmd_validate, "projected-prediction validation", [
        FIT, *DATA, Option("out"),
        Option("mode", default="all", choices=("within", "without", "shuffled", "all")),
        Option("splits", int, VALIDATE["n_splits"].default),
        Option("holdout", float, VALIDATE["holdout_frac"].default),
        Option("seed", int, VALIDATE["seed"].default)]),
    "reproduce": (cmd_reproduce, "run a packaged desk-scale study", [
        Option("what", required=True, choices=("table2",), positional=True),
        *CUBE, Option("reps", int, TABLE2["reps"].default),
        Option("seed", int, TABLE2["seed"].default),
        Option("restarts", int, TABLE2["restarts"].default),
        Option("threads", int, TABLE2["threads"].default), Option("out")]),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="lasir",
                                     description="Latent-subgroup image-on-scalar regression")
    parser.add_argument("--version", action="version", version=f"lasir {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, options) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key-value config file; flags override")
        p.set_defaults(subparser=p)
        for opt in options:
            if opt.positional:  # optional here, so that a config file can supply it
                p.add_argument(opt.dest, nargs="?", choices=opt.choices, help=opt.help)
            elif opt.type is _parse_bool:
                p.add_argument(opt.flag, dest=opt.dest, action="store_const", const=True,
                               help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.dest, choices=opt.choices, help=opt.help,
                               type=opt.type if opt.type in (int, float) else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    handler, _, options = COMMANDS[args.command]
    try:
        handler(_resolve(args, options))
    except UsageError as exc:
        args.subparser.print_usage(sys.stderr)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
