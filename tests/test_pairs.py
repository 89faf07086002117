import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "tools", "pairs.py"))
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

# A stand-in for benchmarks/run.py: SIDE is 2 in the committed tree and 1 in
# the working tree; `wall_s` rises with the run's index, so it tells the order.
FAKE_RUN = """import json, os
SIDE = {side}
log = os.environ["PAIRS_LOG"]
index = len(open(log).read().split()) if os.path.exists(log) else 0
with open(log, "a") as fh:
    fh.write(f"{{SIDE}}\\n")
print("a line of the run's report")
values = {{"cpu_s": SIDE, "wall_s": 1.0 + 0.5 * index, "setup_s": 3.0 - SIDE,
           "ok_ratio": 1.0 / SIDE, "peak_rss_mb": None}}
print(json.dumps({{"correct": True, "metrics": {{
    name: {{"value": value, "unit": "s"}} for name, value in values.items()}}}}))
"""
SPEC = {"end_to_end": [{"name": name, "better": "lower"}
                       for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")]
        + [{"name": "ok_ratio", "better": "higher"}], "per_layer": []}


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=cwd, check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "benchmarks" / "run.py").write_text(FAKE_RUN.format(side=2))
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "parent")
    (tmp_path / "benchmarks" / "run.py").write_text(FAKE_RUN.format(side=1))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PAIRS_LOG", str(tmp_path / "runs.log"))
    return tmp_path


def test_alternates_the_sides_and_reports_wins_medians_and_verdicts(repo, capsys):
    assert pairs.main(["--against", "HEAD", "--workload", "desk", "--seed", "1",
                       "--pairs", "4"]) == 0
    # the parent (2) first in pairs 1 and 3, the change (1) first in 2 and 4
    assert (repo / "runs.log").read_text().split() == ["2", "1", "1", "2", "2", "1", "1", "2"]
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:6]}
    assert rows["cpu_s"] == ["2/2/2", "1/1/1", "4/4", "+1", "0", "gain"]
    # the runs' indexes: parent 0, 3, 4, 7; change 1, 2, 5, 6
    assert rows["wall_s"] == ["2.125/2.75/3.375", "1.875/2.75/3.625", "2/4", "+0", "1.25", "-"]
    assert rows["setup_s"] == ["1/1/1", "2/2/2", "0/4", "-1", "0", "loss"]
    assert rows["ok_ratio"] == ["0.5/0.5/0.5", "1/1/1", "4/4", "+0.5", "0", "gain"]
    assert "peak_rss_mb" not in rows  # no value: not compared
    assert "wall_s parent: 1 2.5 3 4.5" in lines
    assert "wall_s change: 1.5 2 3.5 4" in lines


def test_the_last_line_is_the_record_of_every_run_and_the_table(repo, capsys):
    assert pairs.main(["--against", "HEAD", "--workload", "masked", "--seed", "3",
                       "--pairs", "4", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = json.loads(lines[-1])
    assert {key: data[key] for key in ("against", "workload", "seed", "pairs", "trace")} == {
        "against": "HEAD", "workload": "masked", "seed": 3, "pairs": 4, "trace": 1}
    # every run's metrics in run order, the metric without a value left out
    assert [r["wall_s"] for r in data["runs"]["parent"]] == [1.0, 2.5, 3.0, 4.5]
    assert [r["wall_s"] for r in data["runs"]["change"]] == [1.5, 2.0, 3.5, 4.0]
    assert all(r["cpu_s"] == 2 and "peak_rss_mb" not in r for r in data["runs"]["parent"])
    assert data["metrics"]["cpu_s"] == {"parent": [2, 2, 2], "change": [1, 1, 1], "wins": 4,
                                        "gap": 1.0, "iqr": 0.0, "verdict": "gain"}
    assert data["metrics"]["wall_s"] == {
        "parent": [2.125, 2.75, 3.375], "change": [1.875, 2.75, 3.625], "wins": 2,
        "gap": 0.0, "iqr": 1.25, "verdict": "-"}
    assert data["metrics"]["setup_s"]["verdict"] == "loss"
    assert sorted(data["metrics"]) == ["cpu_s", "ok_ratio", "setup_s", "wall_s"]
    # the printed table says the same
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:6]}
    assert rows["cpu_s"] == ["2/2/2", "1/1/1", "4/4", "+1", "0", "gain"]


def test_the_verdict_needs_the_wins_and_a_gap_wider_than_the_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    # nine wins of ten, median 0.3 lower against an IQR of 0.45: no gain
    change = [v - 0.3 for v in parent[:9]] + [2.0]
    assert pairs.compare(parent, change, False)[0] == 9
    assert pairs.compare(parent, change, False)[3] == "-"
    assert pairs.compare(parent, [v - 0.5 for v in parent], False)[3] == "gain"
    assert pairs.compare(parent, [v - 0.5 for v in parent], True)[3] == "loss"
    # eight wins of ten fall short, however large the gap
    wins, gap, _, verdict = pairs.compare(parent, [v - 5.0 for v in parent[:8]] + [9.0, 9.0],
                                          False)
    assert (wins, verdict) == (8, "-") and gap > 4.0


def test_a_failing_run_exits_1(repo, capsys):
    (repo / "benchmarks" / "run.py").write_text("import sys\nsys.exit('no inputs')\n")
    assert pairs.main(["--against", "HEAD", "--workload", "desk", "--seed", "1",
                       "--pairs", "1"]) == 1
    assert "the change run of pair 1 failed" in capsys.readouterr().err


# A stand-in for benchmarks/run.py that logs the tree it runs from and the
# files in it.
WHERE_RUN = """import json, os
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
files = sorted(os.path.relpath(os.path.join(d, f), root)
               for d, _, names in os.walk(root) for f in names)
with open(os.environ["PAIRS_LOG"], "a") as fh:
    fh.write(json.dumps({{"side": {side!r}, "root": root, "cwd": os.getcwd(),
                         "files": files}}) + "\\n")
print(json.dumps({{"metrics": {{"wall_s": {{"value": 1.0, "unit": "s"}}}}}}))
"""


def test_each_side_runs_from_a_fresh_copy_of_its_files(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "benchmarks").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (repo / ".gitignore").write_text("cache/\n")
    (repo / "benchmarks" / "run.py").write_text(WHERE_RUN.format(side="parent"))
    (repo / "gone.txt").write_text("tracked, then deleted\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "benchmarks" / "run.py").write_text(WHERE_RUN.format(side="change"))
    (repo / "gone.txt").unlink()
    (repo / "notes.txt").write_text("untracked, not ignored\n")
    (repo / "cache").mkdir()
    (repo / "cache" / "big.bin").write_bytes(b"ignored")
    monkeypatch.chdir(repo)
    monkeypatch.setenv("PAIRS_LOG", str(tmp_path / "runs.log"))
    assert pairs.main(["--against", "HEAD", "--workload", "desk", "--seed", "1",
                       "--pairs", "2"]) == 0
    runs = [json.loads(line) for line in (tmp_path / "runs.log").read_text().splitlines()]
    assert [r["side"] for r in runs] == ["parent", "change", "change", "parent"]
    roots = {side: {r["root"] for r in runs if r["side"] == side} for side in ("parent", "change")}
    assert all(len(found) == 1 for found in roots.values())
    (parent,), (change,) = roots["parent"], roots["change"]
    assert len({parent, change, str(repo)}) == 3  # neither side runs in the working tree
    assert all(r["cwd"] == r["root"] for r in runs)
    files = {r["side"]: r["files"] for r in runs}
    assert files["parent"] == [".gitignore", "BENCHMARK.json", "benchmarks/run.py", "gone.txt"]
    assert files["change"] == [".gitignore", "BENCHMARK.json", "benchmarks/run.py", "notes.txt"]
