"""Benchmark for lasir: the desk and masked workloads.

One workload, as a gated run (the last stdout line is the result JSON):

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 50 --trace 0

`--trace 0` reports the end-to-end metrics with the BLAS environment left as
the caller has it; `--trace 1` reports the per-layer metrics of a traced run.
`--single-thread` runs the plain single-threaded reference instead
(OPENBLAS_NUM_THREADS=1 in the measured process, one replicate thread).

Every workload, each gated, single-threaded and traced, with a table of all
metrics and units, optionally recorded to a JSON file:

    python3 benchmarks/run.py --workload all --record benchmarks/results/BENCH_1.json

Inputs come from generate.py in a process of their own and are cached under
``.benchmarks_cache/`` at the repository root; the timed stages run in
measure.py. Generation time is printed and recorded as `generate_s` but not
gated: it depends on whether the cache already held the inputs. Exits
non-zero when an output check fails, and without a result when lasir's
sources are missing or a step does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
CACHE = os.path.join(ROOT, ".benchmarks_cache")
WORKLOADS = ("desk", "masked")
TIME_LIMIT = 170.0  # seconds for one workload run, generation included


class StepFailed(RuntimeError):
    pass


def _python(script, args, deadline, env=None):
    """Run a benchmark script in a child Python; returns its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StepFailed(f"{script}: no time left")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              stdout=subprocess.PIPE, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise StepFailed(f"{script}: did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise StepFailed(f"{script}: exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, single_thread):
    """Generate (or reuse) the inputs, then measure; returns measure.py's record."""
    deadline = time.monotonic() + TIME_LIMIT
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    gen = _python("generate.py", args + ["--cache", CACHE], deadline)
    args += ["--dir", gen["dir"]]
    env = dict(os.environ)
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
        args += ["--threads", "1"]
    record = _python("measure.py", args, deadline, env)
    record["generate_s"] = sum(gen["seconds"].values())
    record["inputs_reused"] = all(gen["reused"].values())
    return record


def _metrics(record, names):
    table = record["per_layer"] if names is PER_LAYER else record["end_to_end"]
    return {name: {"value": table[name], "unit": unit} for name, unit in names.items()}


def _fmt(value):
    return "-" if value is None else f"{value:.6g}"


def _report(name, record, label):
    print(f"[{name} {label}] passes={record['passes']} traced={record['traced_passes']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']} inputs_reused={record['inputs_reused']}")
    for failure in record["failures"]:
        print(f"[{name} {label}] check failed: {failure}")
    rows = {**record["end_to_end"], "generate_s": record["generate_s"],
            **record["quality"], **record["stages"], **record["per_layer"]}
    units = {**END_TO_END, "generate_s": "s", **record["quality_units"], **PER_LAYER}
    for metric, value in rows.items():
        print(f"[{name} {label}] {metric:34s} {_fmt(value):>12s} {units[metric]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--single-thread", action="store_true",
                        help="single-threaded reference: one BLAS and one replicate thread")
    parser.add_argument("--record", help="write every record of the run to this JSON file")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "lasir", "__init__.py")):
        print(f"lasir sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(name, label, trace, single)
                for name in WORKLOADS
                for label, trace, single in (("gated", 0, False), ("single_thread", 0, True),
                                             ("traced", 1, False))]
    else:
        label = "traced" if args.trace else ("single_thread" if args.single_thread else "gated")
        plan = [(args.workload, label, args.trace, args.single_thread)]

    records = {}
    for name, label, trace, single in plan:
        try:
            record = run_workload(name, args.seed, args.seconds, trace, single)
        except StepFailed as exc:
            print(f"{name} {label}: {exc}", file=sys.stderr)
            return 1
        _report(name, record, label)
        records.setdefault(name, {})[label] = record
    env = {name: rec[next(iter(rec))]["env"] for name, rec in records.items()}
    print("env " + json.dumps(env))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": records},
                      fh, indent=1, sort_keys=True)

    all_records = [r for rec in records.values() for r in rec.values()]
    correct = all(r["correct"] for r in all_records)
    if args.workload == "all":
        metrics = {f"{name}.{metric}": value
                   for name, rec in records.items()
                   for metric, value in _metrics(rec["gated"], END_TO_END).items()}
    else:
        metrics = _metrics(all_records[0], PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in all_records),
                      "failed": sum(r["failed"] for r in all_records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
