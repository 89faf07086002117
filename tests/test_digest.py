import importlib.util
import os
import shutil
import subprocess

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("digest", os.path.join(ROOT, "tools", "digest.py"))
digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digest)

MSE_LINE = "    return sq_err / (pred.shape[-2] * d)\n"


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=cwd, check=True, capture_output=True)


def test_against_a_revision_names_only_the_outputs_that_differ(tmp_path, monkeypatch, capsys):
    shutil.copytree(os.path.join(ROOT, "src", "lasir"), tmp_path / "src" / "lasir",
                    ignore=shutil.ignore_patterns("__pycache__"))
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "start")
    # scale every holdout MSE by 1.5: only the four validation outputs move
    metrics = tmp_path / "src" / "lasir" / "metrics.py"
    source = metrics.read_text()
    assert source.count(MSE_LINE) == 1
    metrics.write_text(source.replace(MSE_LINE, MSE_LINE.replace("return ", "return 1.5 * ")))
    monkeypatch.chdir(tmp_path)
    assert digest.main(["--against", "HEAD", "--shapes", "tiny", "--seeds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[:-1]] == [
        ["1", f"validate.{mode}", "differs,", "max", "relative", "difference", "0.5"]
        for mode in ("within", "without", "shuffled", "fresh")]
    assert lines[-1] == "4 of 40 outputs differ from HEAD"


def test_prints_one_digest_per_output(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    computed = {(7, "simulate"): [np.arange(3.0), np.ones(2, dtype=int)],
                (7, "fit.w"): [np.zeros((2, 3))]}
    monkeypatch.setattr(digest, "_run", lambda *args: computed)
    assert digest.main(["--seeds", "7"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["7", name, digest.digest(arrays)] for (_, name), arrays in computed.items()]


def test_digest_tells_values_shapes_and_dtypes_apart():
    digests = {digest.digest(arrays) for arrays in (
        [np.zeros(4)], [np.zeros((2, 2))], [np.zeros(4, dtype=np.float32)], [np.arange(4.0)],
        [np.zeros(2), np.zeros(2)])}
    assert len(digests) == 5
    assert digest.digest([np.arange(4.0)]) == digest.digest([np.arange(4.0)])


def test_against_an_unknown_revision_fails(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    assert digest.main(["--against", "nosuchref", "--shapes", "tiny"]) == 1
    assert "error:" in capsys.readouterr().err


def test_relative_difference():
    same = [np.array([1.0, 0.0, -2.0])]
    assert digest.relative_difference(same, same) == 0.0
    assert digest.relative_difference([np.array([1.0, 0.0, -3.0])], same) == 0.5
    assert digest.relative_difference([np.array([1.0, 1e-9, -2.0])], same) == float("inf")
    assert digest.relative_difference([np.zeros(2)], same) == float("inf")


def test_a_threaded_fit_that_differs_exits_1(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    parts = {(7, f"fit.{part}"): [np.full(2, float(i))] for i, part in enumerate(digest.FIT_PARTS)}
    same = [a for part in digest.FIT_PARTS for a in parts[(7, f"fit.{part}")]]
    moved = same[:-1] + [same[-1] + 1.0]
    for threaded, code in ((same, 0), (moved, 1)):
        computed = {**parts, (7, "fit.threads"): threaded}
        monkeypatch.setattr(digest, "_run", lambda *args: computed)
        assert digest.main(["--seeds", "7"]) == code
        err = capsys.readouterr().err
        assert ("7  fit.threads differs from fit.* at threads=1" in err) == bool(code)


def test_a_bundled_fit_that_differs_exits_1(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    parts = {(7, f"fit.{part}"): [np.full(2, float(i))] for i, part in enumerate(digest.FIT_PARTS)}
    same = [a for part in digest.FIT_PARTS for a in parts[(7, f"fit.{part}")]]
    moved = [same[0].astype(np.int64)] + same[1:]  # labels read back with another dtype
    for bundled, code in ((same, 0), (moved, 1)):
        computed = {**parts, (7, "fit.bundle"): bundled}
        monkeypatch.setattr(digest, "_run", lambda *args: computed)
        assert digest.main(["--seeds", "7"]) == code
        err = capsys.readouterr().err
        assert ("7  fit.bundle differs from fit.* before save_fit and load_fit" in err) \
            == bool(code)


def test_a_fresh_validation_that_differs_exits_1(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    modes = {(7, f"validate.{mode}"): [np.full(3, float(i)), np.array([i])]
             for i, mode in enumerate(digest.MODES)}
    same = [a for mode in digest.MODES for a in modes[(7, f"validate.{mode}")]]
    moved = same[:-1] + [same[-1] + 1]
    for fresh, code in ((same, 0), (moved, 1)):
        computed = {**modes, (7, "validate.fresh"): fresh}
        monkeypatch.setattr(digest, "_run", lambda *args: computed)
        assert digest.main(["--seeds", "7"]) == code
        err = capsys.readouterr().err
        assert ("7  validate.fresh differs from validate.* on a rebuilt dataset" in err) \
            == bool(code)


def test_a_threaded_selection_that_differs_exits_1(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    parts = {(7, f"select.{part}"): [np.full(2, float(i))]
             for i, part in enumerate(digest.SELECT_PARTS)}
    same = [a for part in digest.SELECT_PARTS for a in parts[(7, f"select.{part}")]]
    moved = same[:-1] + [same[-1] + 1.0]
    for threaded, code in ((same, 0), (moved, 1)):
        computed = {**parts, (7, "select.threads"): threaded}
        monkeypatch.setattr(digest, "_run", lambda *args: computed)
        assert digest.main(["--seeds", "7"]) == code
        err = capsys.readouterr().err
        assert ("7  select.threads differs from select.* at threads=1" in err) == bool(code)


def test_a_wald_map_that_differs_from_its_infer_map_exits_1(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    maps = [np.full(2, float(i)) for i in range(10)]  # two maps of five arrays
    for alone, code in ((maps[:4], 0), (maps[:3] + [maps[3] + 1.0], 1)):
        computed = {(7, "infer"): maps, (7, "infer.wald"): alone}
        monkeypatch.setattr(digest, "_run", lambda *args: computed)
        assert digest.main(["--seeds", "7"]) == code
        err = capsys.readouterr().err
        assert ("7  infer.wald differs from its map in infer, at one thread" in err) \
            == bool(code)
