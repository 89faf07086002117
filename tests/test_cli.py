import dataclasses
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import lasir
from lasir import SemConfig, SimConfig, _blas
from lasir.cli import COMMANDS, SEM, _parse_bool, main
from lasir.simulate import KERNEL
from lasir.study import run_table2
from lasir.io import read_kv


def test_missing_required_flags_exit_2(capsys):
    assert main(["fit"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_input_path_exit_1(capsys):
    code = main(["fit", "--images", "/nonexistent/x", "--covariates", "/nonexistent/c",
                 "--basis", "/nonexistent/b", "--out", "/tmp/o", "--k", "2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["simulate", "--out-dir", str(root / "sim"), "--n", "90",
                 "--dims", "6", "--k", "2", "--seed", "3", "--sites", "3"]) == 0
    assert main(["basis", "--dims", "6", "--a", "0.01", "--b", "2", "--h", "5",
                 "--out", str(root / "basis")]) == 0
    assert main(["fit", "--images", str(root / "sim" / "images"),
                 "--covariates", str(root / "sim" / "covariates.csv"),
                 "--basis", str(root / "basis"), "--k", "2", "--method", "lasir",
                 "--restarts", "2", "--seed", "5", "--threads", "1",
                 "--out", str(root / "fit")]) == 0
    return root


def _data_flags(root):
    return ["--images", str(root / "sim" / "images"),
            "--covariates", str(root / "sim" / "covariates.csv"),
            "--basis", str(root / "basis")]


def test_simulate_writes_bundles_and_manifest(workdir):
    for name in ("images.hdr", "images.dat", "images.mask", "covariates.csv",
                 "truth.hdr", "truth.dat", "run.manifest"):
        assert (workdir / "sim" / name).exists()
    manifest = read_kv(workdir / "sim" / "run.manifest")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == "3"
    assert "config_hash" in manifest and "numpy_version" in manifest
    assert manifest["openblas_threads_numpy"] == str(_blas.pool_size())
    assert "scipy_version" not in manifest
    assert manifest["cpus_allowed"] == str(_blas.allowed_cpus())
    assert manifest["openblas_num_threads_env"] == os.environ.get("OPENBLAS_NUM_THREADS",
                                                                  "unset")


def test_fit_writes_bundle(workdir):
    assert (workdir / "fit.hdr").exists()
    assert (workdir / "fit.manifest").exists()


def test_basis_from_volume_lattice(workdir, capsys):
    out = workdir / "basis_from_vol"
    assert main(["basis", "--lattice", str(workdir / "sim" / "images"),
                 "--a", "0.01", "--b", "2", "--h", "3", "--out", str(out)]) == 0
    from lasir.bundles import load_basis
    basis = load_basis(out)
    assert basis.d == 6 ** 3 and basis.L == 20


def test_basis_selects_degree_from_rate(workdir, capsys):
    out = workdir / "basis_rate"
    assert main(["basis", "--dims", "6", "--a", "0.01", "--b", "200",
                 "--h-ref", "5", "--r0", "0.5", "--out", str(out)]) == 0
    assert "h=" in capsys.readouterr().out
    assert read_kv(str(out) + ".manifest")["command"] == "basis"


def test_infer_writes_map_bundles(workdir):
    assert main(["infer", "--fit", str(workdir / "fit")] + _data_flags(workdir)
                + ["--out-prefix", str(workdir / "inf")]) == 0
    for quantity in ("effect", "se", "wald", "pval", "reject"):
        assert (workdir / f"inf_g1_x1_{quantity}.hdr").exists()


def test_metrics_table(workdir, capsys):
    assert main(["metrics", "--fit", str(workdir / "fit"),
                 "--truth", str(workdir / "sim" / "truth")] + _data_flags(workdir)
                + ["--out", str(workdir / "metrics.csv")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("metric,group,exposure,value")
    assert "nmi" in out and "power" in out
    assert (workdir / "metrics.csv").exists()


def test_infer_and_metrics_run_without_the_image_payload(workdir, tmp_path, capsys):
    # they read the covariates, the lattice and the fit, never an image value
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("images.hdr", "images.mask", "covariates.csv"):
        (bare / name).write_bytes((workdir / "sim" / name).read_bytes())
    for side, images in (("with", workdir / "sim"), ("without", bare)):
        (tmp_path / side).mkdir()
        data = ["--images", str(images / "images"), "--covariates",
                str(images / "covariates.csv"), "--basis", str(workdir / "basis")]
        assert main(["infer", "--fit", str(workdir / "fit"), *data,
                     "--out-prefix", str(tmp_path / side / "inf")]) == 0
        assert main(["metrics", "--fit", str(workdir / "fit"),
                     "--truth", str(workdir / "sim" / "truth"), *data,
                     "--out", str(tmp_path / side / "metrics.csv")]) == 0
    written = sorted(p.name for p in (tmp_path / "with").iterdir()
                     if p.suffix != ".manifest")
    assert "inf_g1_x1_effect.dat" in written and "metrics.csv" in written
    assert written == sorted(p.name for p in (tmp_path / "without").iterdir()
                             if p.suffix != ".manifest")
    for name in written:
        assert (tmp_path / "with" / name).read_bytes() == \
            (tmp_path / "without" / name).read_bytes(), name
    capsys.readouterr()
    assert main(["validate", "--fit", str(workdir / "fit"), "--images", str(bare / "images"),
                 "--covariates", str(bare / "covariates.csv"),
                 "--basis", str(workdir / "basis")]) == 1
    assert str(bare / "images.dat") in capsys.readouterr().err


def test_metrics_scores_only_fitted_groups_matched_to_a_true_group(workdir, tmp_path,
                                                                   capsys):
    # a K=3 fit of K=2 truth: one fitted group has no true map to score against
    assert main(["fit", *_data_flags(workdir), "--k", "3", "--method", "kmlr",
                 "--seed", "5", "--out", str(tmp_path / "fit3")]) == 0
    fit = lasir.bundles.load_fit(tmp_path / "fit3")
    truth = lasir.bundles.load_truth(workdir / "sim" / "truth")
    perm = lasir.match_groups(fit.labels, truth.labels, 3)
    capsys.readouterr()
    assert main(["metrics", "--fit", str(tmp_path / "fit3"),
                 "--truth", str(workdir / "sim" / "truth"), *_data_flags(workdir)]) == 0
    scored = {int(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()
              if line.startswith("power,")}
    assert scored == {k for k in (1, 2, 3) if perm[k - 1] <= 2}
    assert len(scored) == 2


def test_validate_table(workdir, capsys):
    assert main(["validate", "--fit", str(workdir / "fit")] + _data_flags(workdir)
                + ["--mode", "all", "--splits", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "replicate,mode,mse"
    assert sum(1 for line in out if ",within," in line) == 2
    assert sum(1 for line in out if ",shuffled," in line) == 2


def test_select_table(workdir, capsys):
    assert main(["select"] + _data_flags(workdir)
                + ["--k-min", "1", "--k-max", "2", "--restarts", "2", "--seed", "2",
                   "--threads", "1", "--out", str(workdir / "select.csv")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("K,M,Q,BIC")
    assert "chosen," in out
    assert (workdir / "select.csv.bestfit.hdr").exists()


def test_select_rejects_a_candidate_below_one(workdir, capsys):
    assert main(["select"] + _data_flags(workdir)
                + ["--k-min", "0", "--k-max", "2", "--out", str(workdir / "select0.csv")]) == 1
    assert "candidate group counts must be integers >= 1, got 0" in capsys.readouterr().err
    assert not (workdir / "select0.csv").exists()


def test_config_file_with_flag_override(workdir, tmp_path, capsys):
    conf = tmp_path / "sim.conf"
    conf.write_text("n: 40\ndims: 5\nk: 2\nseed: 9\nsites: 2\n")
    out_dir = tmp_path / "sim_out"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out_dir),
                 "--n", "25"]) == 0
    manifest = read_kv(out_dir / "run.manifest")
    assert manifest["n"] == "25"       # flag wins
    assert manifest["seed"] == "9"     # config supplies the rest
    header = read_kv(out_dir / "images.hdr")
    assert header["count"] == "25"


def test_simulate_default_dims(tmp_path):
    # hard defaults must survive the config merge untouched
    assert main(["simulate", "--out-dir", str(tmp_path / "d"), "--n", "30",
                 "--sites", "2"]) == 0
    header = read_kv(tmp_path / "d" / "images.hdr")
    assert header["dims"] == "15 15 15"


def test_reproduce_tiny(tmp_path, capsys):
    assert main(["reproduce", "table2", "--n", "90", "--dims", "6", "--reps", "1",
                 "--seed", "1", "--restarts", "2", "--threads", "1",
                 "--out", str(tmp_path / "t2.csv")]) == 0
    out = capsys.readouterr().out
    assert "nmi_lasir" in out and "mean NMI" in out
    assert (tmp_path / "t2.csv").exists()


def test_fit_deterministic_across_runs(workdir, tmp_path):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    for out in (out1, out2):
        assert main(["fit"] + _data_flags(workdir)
                    + ["--k", "2", "--method", "kmlr", "--seed", "7",
                       "--threads", "1", "--out", str(out)]) == 0
    d1 = (out1.parent / (out1.name + ".dat")).read_bytes()
    d2 = (out2.parent / (out2.name + ".dat")).read_bytes()
    assert d1 == d2


@pytest.mark.parametrize("command", ["fit", "select"])
def test_short_max_iter_runs(workdir, tmp_path, command):
    # the convergence window (5 by default) shrinks to a --max-iter below it
    extra = ["--k", "2"] if command == "fit" else ["--k-min", "1", "--k-max", "2"]
    out = tmp_path / command
    assert main([command] + _data_flags(workdir) + extra
                + ["--max-iter", "3", "--restarts", "2", "--seed", "4", "--threads", "1",
                   "--out", str(out)]) == 0
    assert read_kv(str(out) + ".manifest")["max_iter"] == "3"


@pytest.mark.parametrize("command, manifest, out_flag, made, remade", [
    ("simulate", "sim/run.manifest", "--out-dir", "sim/images.dat", "again/images.dat"),
    ("basis", "basis.manifest", "--out", "basis.dat", "again.dat"),
    ("fit", "fit.manifest", "--out", "fit.dat", "again.dat"),
])
def test_manifest_reruns_as_config(workdir, tmp_path, command, manifest, out_flag, made,
                                   remade):
    # a run's manifest is a config file that re-makes the run bit-identically
    assert main([command, "--config", str(workdir / manifest),
                 out_flag, str(tmp_path / "again")]) == 0
    assert (tmp_path / remade).read_bytes() == (workdir / made).read_bytes()


@pytest.mark.parametrize("text, value", [("1", True), ("TRUE", True), (" yes", True),
                                         ("On", True), ("0", False), ("false", False),
                                         ("No", False), ("off", False)])
def test_config_booleans(text, value):
    assert _parse_bool(text) is value


@pytest.mark.parametrize("command, line", [("simulate", "null_exposure: maybe"),
                                           ("fit", "method: maybe"),
                                           ("validate", "mode: maybe")])
def test_bad_config_value_exit_1(tmp_path, capsys, command, line):
    # config values get the checks argparse gives flags, before any work is done
    conf = tmp_path / "bad.conf"
    conf.write_text(line + "\n")
    assert main([command, "--config", str(conf)]) == 1
    assert "'maybe'" in capsys.readouterr().err


def test_select_manifest_records_only_select_options(workdir, tmp_path):
    out = tmp_path / "sel.csv"
    assert main(["select"] + _data_flags(workdir)
                + ["--k-min", "1", "--k-max", "2", "--restarts", "2", "--seed", "2",
                   "--threads", "1", "--out", str(out)]) == 0
    manifest = read_kv(str(out) + ".manifest")
    assert "k" not in manifest and "method" not in manifest
    assert manifest["k_min"] == "1" and manifest["k_max"] == "2"


def test_fit_options_from_config(workdir, tmp_path):
    conf = tmp_path / "fit.conf"
    conf.write_text(f"images: {workdir / 'sim' / 'images'}\n"
                    f"covariates: {workdir / 'sim' / 'covariates.csv'}\n"
                    f"basis: {workdir / 'basis'}\n"
                    f"k: 2\nrestarts: 2\nseed: 6\nthreads: 1\nmax_iter: 7\n"
                    f"out: {tmp_path / 'from_conf'}\n")
    assert main(["fit", "--config", str(conf)]) == 0
    manifest = read_kv(tmp_path / "from_conf.manifest")
    assert (manifest["k"], manifest["seed"], manifest["max_iter"]) == ("2", "6", "7")
    assert main(["fit"] + _data_flags(workdir)
                + ["--k", "2", "--restarts", "2", "--seed", "6", "--threads", "1",
                   "--max-iter", "7", "--out", str(tmp_path / "from_flags")]) == 0
    assert ((tmp_path / "from_conf.dat").read_bytes()
            == (tmp_path / "from_flags.dat").read_bytes())


def test_infer_requires_out_prefix(workdir, capsys):
    assert main(["infer", "--fit", str(workdir / "fit")] + _data_flags(workdir)) == 2
    assert "--out-prefix is required" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flags", [
    (["infer", "--fit", "f", "--images", "i", "--covariates", "c", "--basis", "b"],
     ["--out-prefix", "--alpha", "--fit"]),
    (["basis", "--dims", "5"], ["--out", "--h-ref", "--lattice"]),
    (["reproduce", "--n", "5"], ["--reps", "{table2}"]),
])
def test_usage_error_prints_subcommand_usage(capsys, argv, flags):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"usage: lasir {argv[0]} " in err
    assert all(flag in err for flag in flags)
    assert "{basis,simulate" not in err


def test_reproduce_manifest_reruns_without_naming_the_study(tmp_path):
    flags = ["--n", "90", "--dims", "6", "--reps", "1", "--seed", "1", "--restarts", "2",
             "--threads", "1"]
    assert main(["reproduce", "table2", *flags, "--out", str(tmp_path / "t2.csv")]) == 0
    manifest = tmp_path / "t2.csv.manifest"
    assert read_kv(manifest)["what"] == "table2"
    assert main(["reproduce", "--config", str(manifest), "--out", str(tmp_path / "new.csv")]) == 0
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_fit_rejects_basis_from_another_mask(tmp_path, capsys):
    # Both masks drop one voxel of the 4^3 grid, so the voxel counts agree
    # and only the masks tell the lattices apart.
    from lasir import build_lattice, save_dataset, save_volume_map
    from test_lattice import _toy_dataset

    masks = [np.ones((4, 4, 4), dtype=bool) for _ in range(2)]
    masks[0][0, 0, 0] = masks[1][3, 3, 3] = False
    data_lattice, basis_lattice = (build_lattice((4, 4, 4), m) for m in masks)
    save_dataset(_toy_dataset(30, lattice=data_lattice), data_lattice, tmp_path / "images",
                 tmp_path / "covariates.csv")
    save_volume_map(np.zeros(basis_lattice.d), basis_lattice, tmp_path / "other")
    assert main(["basis", "--lattice", str(tmp_path / "other"), "--a", "0.01", "--b", "2",
                 "--h", "2", "--out", str(tmp_path / "basis")]) == 0
    assert main(["fit", "--images", str(tmp_path / "images"),
                 "--covariates", str(tmp_path / "covariates.csv"),
                 "--basis", str(tmp_path / "basis"), "--k", "2",
                 "--out", str(tmp_path / "fit")]) == 1
    assert "basis mask does not match the lattice mask (2 grid cells differ)" \
        in capsys.readouterr().err


def test_sem_options_default_to_sem_config():
    options = {opt.dest: opt.default for opt in SEM}
    fields = {f.name for f in dataclasses.fields(SemConfig)} - {"init_labels"}
    assert set(options) == fields
    assert all(default == getattr(SemConfig, name) for name, default in options.items())
    assert options["threads"] == 1


def test_cube_kernel_and_study_options_default_to_the_library():
    defaults = {name: {opt.dest: opt.default for opt in options}
                for name, (_, _, options) in COMMANDS.items()}
    sim = SimConfig()
    assert {k: defaults["simulate"][k] for k in ("n", "dims", "sigma", "k", "seed", "sites")} \
        == {"n": sim.n, "dims": sim.dims, "sigma": sim.sigma, "k": sim.n_groups,
            "seed": sim.seed, "sites": sim.n_sites}
    assert (defaults["basis"]["a"], defaults["basis"]["b"]) == (KERNEL.a, KERNEL.b)
    table2 = inspect.signature(run_table2).parameters
    names = ("n", "dims", "sigma", "reps", "seed", "restarts", "threads")
    assert {k: defaults["reproduce"][k] for k in names} == {k: table2[k].default for k in names}
    assert (table2["n"].default, table2["dims"].default, table2["sigma"].default) \
        == (sim.n, sim.dims, sim.sigma)


def test_validate_and_alpha_options_default_to_the_library():
    defaults = {name: {opt.dest: opt.default for opt in options}
                for name, (_, _, options) in COMMANDS.items()}
    validate = inspect.signature(lasir.validate_projection).parameters
    assert {k: defaults["validate"][k] for k in ("splits", "holdout", "seed")} \
        == {"splits": validate["n_splits"].default,
            "holdout": validate["holdout_frac"].default, "seed": validate["seed"].default}
    alpha = inspect.signature(lasir.infer_maps).parameters["alpha"].default
    assert defaults["infer"]["alpha"] == defaults["metrics"]["alpha"] == alpha


@pytest.mark.parametrize("argv, named", [
    (["fit", "--method", "kmlr", "--k", "0"], "n_clusters must be >= 1, got 0"),
    (["fit", "--method", "kmlr", "--k", "-1"], "n_clusters must be >= 1, got -1"),
    (["validate", "--splits", "0"], "n_splits must be >= 1, got 0"),
    (["validate", "--holdout", "1.5"], "holdout_frac must be in (0, 1), got 1.5"),
])
def test_bad_fit_and_validation_settings_exit_1(workdir, tmp_path, capsys, argv, named):
    argv = argv + _data_flags(workdir) + (["--out", str(tmp_path / "fit")]
                                          if argv[0] == "fit" else
                                          ["--fit", str(workdir / "fit")])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {named}\n"
    assert "replicate," not in captured.out


@pytest.mark.parametrize("command", ["validate", "infer"])
def test_fit_of_another_dataset_exits_1(workdir, tmp_path, capsys, command):
    other = tmp_path / "other"
    assert main(["simulate", "--out-dir", str(other), "--n", "40", "--dims", "6", "--k", "2",
                 "--seed", "4", "--sites", "3"]) == 0
    argv = [command, "--fit", str(workdir / "fit"), "--images", str(other / "images"),
            "--covariates", str(other / "covariates.csv"), "--basis", str(workdir / "basis")]
    if command == "infer":
        argv += ["--out-prefix", str(tmp_path / "inf")]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the fit has labels for 90 individuals, the dataset has 40\n"
    assert captured.out == ""


def _run_after_lasir_import(code):
    # runs `code` in a fresh interpreter that has just imported lasir and its CLI
    src = os.path.dirname(os.path.dirname(lasir.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import sys, lasir, lasir.cli; " + code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_stats_out():
    # every CLI start imports lasir; scipy.stats alone takes about 0.4 s to import
    assert _run_after_lasir_import("print('scipy.stats' in sys.modules)").strip() == "False"


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize holds about 17 MB of every process that imports it
    assert _run_after_lasir_import("print('scipy.optimize' in sys.modules)").strip() == "False"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_import_leaves_scipy_out():
    # scipy's modules and its own OpenBLAS once took about half of every
    # process that imports lasir: 61 MB peak RSS, against 27 MB for numpy.
    # The peak is VmHWM, the child's own: its ru_maxrss would also count
    # the RSS of this process, which started it.
    out = _run_after_lasir_import(
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy'))); "
        "print(open('/proc/self/status').read())")
    modules, status = out.split("\n", 1)
    assert modules == "[]"
    peak_kb = int(status.split("VmHWM:")[1].split()[0])
    assert peak_kb < 40 * 1024


def test_config_with_retired_sem_keys_still_runs(workdir, tmp_path):
    # manifests written before the variance floor and the convergence window
    # became constants hold these keys; they are read as unused config keys
    conf = tmp_path / "old.manifest"
    conf.write_text("command: fit\nk: 2\nrestarts: 2\nseed: 6\nthreads: 1\n"
                    "lambda_floor: 1e-10\nwindow: 5\n")
    out = tmp_path / "old_fit"
    assert main(["fit", "--config", str(conf)] + _data_flags(workdir)
                + ["--out", str(out)]) == 0
    assert "lambda_floor" not in read_kv(str(out) + ".manifest")


def test_infer_with_a_fit_on_another_basis_exits_1(workdir, tmp_path, capsys):
    # the fit used h=5 (L=56); this basis of the same 6^3 lattice has h=3 (L=20)
    assert main(["basis", "--dims", "6", "--a", "0.01", "--b", "2", "--h", "3",
                 "--out", str(tmp_path / "basis")]) == 0
    capsys.readouterr()
    argv = ["infer", "--fit", str(workdir / "fit"), "--images", str(workdir / "sim" / "images"),
            "--covariates", str(workdir / "sim" / "covariates.csv"),
            "--basis", str(tmp_path / "basis"), "--out-prefix", str(tmp_path / "inf")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the fit has 56 basis coefficients, the basis has 20\n"
    assert captured.out == ""


def _fit_argv(command, fit, root, basis, tmp_path):
    argv = [command, "--fit", str(fit), "--images", str(root / "sim" / "images"),
            "--covariates", str(root / "sim" / "covariates.csv"), "--basis", str(basis)]
    if command == "infer":
        argv += ["--out-prefix", str(tmp_path / "inf")]
    if command == "metrics":
        argv += ["--truth", str(root / "sim" / "truth")]
    return argv


@pytest.mark.parametrize("command", ["infer", "validate", "metrics"])
def test_fit_on_another_basis_of_the_same_size_exits_1(workdir, tmp_path, capsys, command):
    # the fit used a=0.01, b=2, h=5; this basis of the same lattice also has L=56
    assert main(["basis", "--dims", "6", "--a", "0.3", "--b", "0.5", "--h", "5",
                 "--out", str(tmp_path / "basis")]) == 0
    capsys.readouterr()
    assert main(_fit_argv(command, workdir / "fit", workdir, tmp_path / "basis",
                          tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the fit was made on the basis "
                                   "a=0.01 b=2.0 h=5 L=56 d=216 sha256=")
    assert ", not on the given basis a=0.3 b=0.5 h=5 L=56 d=216 sha256=" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["infer", "validate", "metrics"])
def test_fit_bundle_without_a_basis_record_still_runs(workdir, tmp_path, command):
    # a bundle written before fits recorded their basis: the same header
    # without its basis_* entries
    header = (workdir / "fit.hdr").read_text().splitlines(keepends=True)
    assert any(line.startswith("meta.basis_sha256: ") for line in header)
    (tmp_path / "fit.hdr").write_text("".join(line for line in header
                                              if not line.startswith("meta.basis_")))
    (tmp_path / "fit.dat").write_bytes((workdir / "fit.dat").read_bytes())
    assert lasir.bundles.load_fit(tmp_path / "fit").basis is None
    assert main(_fit_argv(command, tmp_path / "fit", workdir, workdir / "basis",
                          tmp_path)) == 0


def test_select_records_the_basis_of_its_best_fit(workdir, tmp_path):
    out = tmp_path / "sel.csv"
    assert main(["select"] + _data_flags(workdir)
                + ["--k-min", "1", "--k-max", "2", "--restarts", "2", "--max-iter", "5",
                   "--out", str(out)]) == 0
    best = lasir.bundles.load_fit(str(out) + ".bestfit")
    assert best.basis == lasir.bundles.load_basis(workdir / "basis").identity()
