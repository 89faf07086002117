import os

import pytest

from lasir import _blas
from lasir.cli import main
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
    sizes = _blas.pool_sizes()
    assert sizes
    for package, size in sizes.items():
        assert manifest[f"openblas_threads_{package}"] == str(size)
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
