"""Compare the benchmark of the working tree with that of a git revision, in
alternating pairs of runs.

    python tools/pairs.py --against REF --workload desk|masked --seed S --pairs N
                          [--trace 0|1]

unpacks `git archive REF` into a temporary directory and copies the files
of the working tree that git tracks or would track (untracked but not
ignored) into another (`revision.py`), then runs `benchmarks/run.py` of the
first tree (the parent) and of the copy (the change) N times each, with the
same options and at each tree's own default run length. Both sides run from
fresh directories, because the directory a run starts from can move its
metrics: the masked workload read about 0.37 MB more `peak_rss_mb` from the
working tree itself than from a copy of it elsewhere. The parent goes
first in pairs 1, 3, 5, ... and the change in pairs 2, 4, 6, ..., so that
a drift of the machine's speed falls on both sides alike. Each run's
metrics are read from its final stdout line, the JSON result; every run
must exit 0.

It then prints, per metric: the parent's and the change's q1/median/q3, the
change's wins (pairs where its value is better, in the metric's direction
from BENCHMARK.json), the gap of the medians (positive where the change is
better), the parent's IQR, and the verdict: `gain` when the change wins at
least 9 pairs in 10 and the gap is wider than the parent's IQR, `loss` when
the parent does both, else `-`. Every run's value follows, in pair order.
The final stdout line is the record of all of it as JSON: the options,
every run's metrics (`runs`, per side in run order) and, per metric, both
sides' quartiles, the wins, gap, parent IQR and verdict (`metrics`).
Exits 1, naming the run, when a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from revision import archive, copy_worktree, toplevel, unpack  # noqa: E402

SHARE = 0.9  # share of the pairs that the better side must win


def run(tree: Path, options) -> dict:
    """metric -> value of one run of `tree`'s benchmark."""
    out = subprocess.run([sys.executable, str(tree / "benchmarks" / "run.py"), *options],
                         cwd=tree, capture_output=True, text=True, check=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["value"] is not None}


def compare(parent, change, higher: bool):
    """(wins, gap, parent IQR, verdict) of paired values; `higher` if larger is better."""
    def better(a, b):
        return a > b if higher else a < b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    other = float(np.median(change))
    gap, iqr = (other - median if higher else median - other), q3 - q1
    verdict = ("gain" if wins >= SHARE * len(parent) and gap > iqr else
               "loss" if losses >= SHARE * len(parent) and -gap > iqr else "-")
    return wins, gap, iqr, verdict


def _quartiles(values) -> list:
    return np.percentile(values, [25, 50, 75]).tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the working tree against REF.")
    parser.add_argument("--against", metavar="REF", required=True)
    parser.add_argument("--workload", choices=("desk", "masked"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    options = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    try:
        top = toplevel()
        tar = archive(args.against)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 1
    spec = json.loads((top / "BENCHMARK.json").read_text(encoding="utf-8"))
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": unpack(tar, Path(tmp) / "parent"),
                 "change": copy_worktree(Path(tmp) / "change")}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr)
                try:
                    runs[side].append(run(trees[side], options))
                except subprocess.CalledProcessError as exc:
                    print(f"error: the {side} run of pair {i + 1} failed:\n{exc.stderr}",
                          file=sys.stderr)
                    return 1
    names = [name for name in runs["parent"][0] if all(name in r for rs in runs.values()
                                                        for r in rs)]
    print(f"{args.pairs} pairs against {args.against}, {args.workload}, seed {args.seed}")
    print(f"{'metric':<28} {'parent q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'wins':>6} {'gap':>10} {'IQR':>10}  verdict")
    table = {}
    for name in names:
        parent, change = ([r[name] for r in runs[side]] for side in ("parent", "change"))
        wins, gap, iqr, verdict = compare(parent, change, higher.get(name, False))
        row = table[name] = {"parent": _quartiles(parent), "change": _quartiles(change),
                             "wins": wins, "gap": float(gap), "iqr": float(iqr),
                             "verdict": verdict}
        text = ["/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change")]
        print(f"{name:<28} {text[0]:>26} {text[1]:>26} "
              f"{f'{wins}/{args.pairs}':>6} {gap:>+10.4g} {iqr:>10.4g}  {verdict}")
    for name in names:
        for side in ("parent", "change"):
            print(f"{name} {side}: " + " ".join(f"{r[name]:.6g}" for r in runs[side]))
    print(json.dumps({"against": args.against, "workload": args.workload, "seed": args.seed,
                      "pairs": args.pairs, "trace": args.trace, "runs": runs, "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
