"""Run the timed passes of one workload (the measured process).

Before each pass (each untraced+traced pair with `--trace 1`), loads an
input instance made by generate.py `SETUP_LOADS` times (timed: the median
over the run is `setup_s`), then runs the
workload's stages through lasir's public functions and checks the outputs,
for the number of passes `workloads.plan` derives from `--seconds`. With
`--trace 1` every instance runs twice, untraced and traced, in alternating
order; the traced pass records spans around lasir's functions (spans.py).
The last stdout line is a JSON object with the aggregated metrics and the
environment record.
"""

import argparse
import ctypes
import glob
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import traceback
from time import perf_counter

from workloads import QUALITY, ROOT, WORKLOADS, Stages, instance_seeds, plan  # first: src/ on path

import numpy as np
import scipy

import lasir
from spans import Recorder, instrument, restore

# Per-layer names come from BENCHMARK.json: `<stage>_s` and
# `<stage>.cpu_per_wall` per timed stage, `<module>.<metric>` per layer.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER = [m["name"] for m in json.load(_fh)["per_layer"]]
STAGES = [n[:-len(".cpu_per_wall")] for n in PER_LAYER if n.endswith(".cpu_per_wall")]
LAYERS = [n for n in PER_LAYER
          if "." in n and not n.endswith(".cpu_per_wall") and n != "trace.overhead_ratio"]
# Timed loads of the inputs before each pass. Loading takes 30-50 ms and
# follows the machine's memory bandwidth, so the samples are spread over the run.
SETUP_LOADS = 9


class FailedReplicates(logging.Handler):
    """Counts the replicate failures that `fit_sem` logs and then drops."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("replicate failed"):
            self.count += 1


def _openblas(package, pattern, suffix):
    """Version string and pool size of a bundled OpenBLAS, read (never set)."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                          package.__name__ + ".libs")
    paths = sorted(glob.glob(os.path.join(libdir, pattern)))
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])
    get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return {"library": os.path.basename(paths[0]), "threads": get_threads(),
            "config": get_config().decode()}


def environment(workload, threads, shape):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lasir": lasir.__version__,
        "openblas_numpy": _openblas(np, "libscipy_openblas64_*.so", "64_"),
        "openblas_scipy": _openblas(scipy, "libscipy_openblas-*.so", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "replicate_threads": threads,
        **shape,
    }


def _median(values):
    values = [v for v in values if v is not None and np.isfinite(v)]
    return statistics.median(values) if values else None


def run(args):
    workload = WORKLOADS[args.workload]
    threads = args.threads
    failed_replicates = FailedReplicates()
    logging.getLogger("lasir.sem").addHandler(failed_replicates)
    work = os.path.join(args.dir, f"work-{os.getpid()}")
    os.makedirs(work)

    setups, passes, failures = [], [], []
    attempted = failed = 0
    shape = None
    correct = True
    units, instances = plan(workload, args.seconds, args.trace)
    try:
        for unit in range(units):
            index = unit % instances
            seeds = instance_seeds(args.seed, unit)  # equal to the data seeds unless reused
            src = os.path.join(args.dir, f"inst-{index}")
            for _ in range(SETUP_LOADS):
                inputs = None  # free the previous load before timing the next
                load_start = perf_counter()
                inputs = workload.load(src)
                setups.append(perf_counter() - load_start)
            shape = shape or workload.shape(inputs)
            order = (False,) if not args.trace else ((False, True) if unit % 2 == 0
                                                       else (True, False))
            for traced in order:
                stages = Stages()
                rec = Recorder() if traced else None
                undo = instrument(rec) if traced else []
                failed_replicates.count = 0
                attempted += workload.operations
                try:
                    out = workload.run(inputs, seeds, threads, stages, work)
                except Exception:
                    traceback.print_exc()
                    failures.append(f"pass {unit}: stage raised")
                    failed += workload.operations
                    correct = False
                    break
                finally:
                    restore(undo)
                bad, quality = workload.check(inputs, out)
                del out
                for name in os.listdir(work):  # drop written bundles before writeback
                    os.remove(os.path.join(work, name))
                failures += bad
                correct = correct and not bad
                failed += min(workload.operations, len(bad) + failed_replicates.count)
                layers = None
                if traced:
                    layers = rec.totals()
                    layers["sem.replicates_failed"] = failed_replicates.count
                passes.append({"traced": traced, "wall": stages.wall, "cpu": stages.cpu,
                               "quality": quality, "layers": layers})
            del inputs
            if not correct:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    wall = _median([sum(p["wall"].values()) for p in plain])
    end_to_end = {
        "setup_s": _median(setups),
        "wall_s": wall,
        "cpu_s": _median([sum(p["cpu"].values()) for p in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - failed / attempted,
    }
    quality = {name: _median([p["quality"][name] for p in plain]) for name in QUALITY}
    stage_s = {}
    per_layer = {}
    for stage in STAGES:
        runs = [p for p in plain if stage in p["wall"]]
        if runs:
            stage_s[f"{stage}_s"] = _median([p["wall"][stage] for p in runs])
        per_layer[f"{stage}_s"] = stage_s.get(f"{stage}_s", 0.0)
        per_layer[f"{stage}.cpu_per_wall"] = _median(
            [p["cpu"][stage] / p["wall"][stage] for p in runs]) or 0.0
    if traced_passes:
        for name in LAYERS:
            per_layer[name] = _median([p["layers"].get(name, 0.0) for p in traced_passes])
        traced_wall = _median([sum(p["wall"].values()) for p in traced_passes])
        per_layer["trace.overhead_ratio"] = traced_wall / wall if wall else None
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "stages": stage_s,
        "quality": quality, "quality_units": QUALITY,
        "per_layer": per_layer if traced_passes else {},
        "passes": len(plain), "traced_passes": len(traced_passes),
        "pass_wall_s": [sum(p["wall"].values()) for p in plain],
        "failures": sorted(set(failures)),
        "env": environment(workload.name, workload.replicate_threads(threads), shape or {}),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--threads", type=int, default=None,
                        help="replicate threads of every fit (default: the workload's)")
    print(json.dumps(run(parser.parse_args())))


if __name__ == "__main__":
    main()
