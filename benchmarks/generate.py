"""Make, or reuse from the cache, the input instances of one workload run.

Runs apart from the measuring process so that the simulator's memory never
shows in the measured peak RSS. Instances live in
``<cache>/<workload>-<key>/seed-<seed>/inst-<index>``, where the key hashes
the workload's parameters and the sources that make and write the inputs
(lasir's package and workloads.py), so a change to either regenerates
them. A run keeps only its own seed of each workload, because one masked
instance is about 0.7 GB. Each instance is written under a temporary name
and renamed into place once complete. The last stdout line is a JSON object
with the instance directory and, per instance, the seconds spent making it
and whether it was reused from the cache.

    python3 benchmarks/generate.py --workload masked --seed 0 --seconds 50 --trace 0 \
        --cache .benchmarks_cache
"""

import argparse
import hashlib
import json
import os
import shutil
from time import perf_counter

from workloads import ROOT, WORKLOADS, instance_seeds, plan


def cache_key(workload):
    """Hash of the workload's parameters and of every source that shapes its inputs."""
    digest = hashlib.sha256(json.dumps(workload.params, sort_keys=True).encode())
    package = os.path.join(ROOT, "src", "lasir")
    sources = sorted(os.path.join(top, name) for top, _, names in os.walk(package)
                     for name in names if name.endswith(".py"))
    for path in sources + [os.path.join(ROOT, "benchmarks", "workloads.py")]:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:12]


def _evict(cache, keep):
    """Remove every cached entry of the same workload except `keep`."""
    top, seed_dir = os.path.split(keep)
    name = os.path.basename(top).rsplit("-", 1)[0]
    for entry in os.listdir(cache):
        path = os.path.join(cache, entry)
        if entry.rsplit("-", 1)[0] == name and path != top:
            shutil.rmtree(path, ignore_errors=True)
    for entry in os.listdir(top):
        if entry != seed_dir:
            shutil.rmtree(os.path.join(top, entry), ignore_errors=True)


def _flush(directory):
    """Write the instance to disk now, so its writeback does not overlap the timed passes."""
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as fh:
            os.fsync(fh.fileno())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cache", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    directory = os.path.join(args.cache, f"{workload.name}-{cache_key(workload)}",
                             f"seed-{args.seed}")
    os.makedirs(directory, exist_ok=True)
    _evict(args.cache, directory)
    seconds, reused = {}, {}
    for index in range(plan(workload, args.seconds, args.trace)[1]):
        start = perf_counter()
        final = os.path.join(directory, f"inst-{index}")
        reused[index] = os.path.isdir(final)
        if not reused[index]:
            partial = final + ".partial"
            shutil.rmtree(partial, ignore_errors=True)
            os.makedirs(partial)
            workload.generate(instance_seeds(args.seed, index), partial)
            _flush(partial)
            os.rename(partial, final)
        seconds[index] = perf_counter() - start
    print(json.dumps({"dir": directory, "seconds": seconds, "reused": reused}))


if __name__ == "__main__":
    main()
