"""Digest the outputs of lasir's main entry points, to show that a change
gives the same answers.

    python tools/digest.py [--seeds S ...] [--shapes desk|tiny]

prints one SHA-256 digest (its first 16 hex digits) per output and seed:

* `simulate` -- `simulate_cube`'s images, design, true labels and basis;
* `project` -- the images, their projection on the basis and their squared
  norms (`projection.projected`);
* `load` -- the same three after a round trip through a volume bundle
  (`save_dataset`, `load_dataset`): the projection record is streamed from
  the payload before anything reads the images, and the payload is read,
  projected and squared one row per chunk, with `_blas.PARALLEL_VALUES` at
  0, so that every pass deals its chunks to threads on a machine that
  allows two CPUs or more; it must equal `project`;
* `fit.labels`, `fit.theta` (theta_alpha, theta_eta, theta_gamma),
  `fit.lam`, `fit.w`, `fit.q` (the Q trace) and `fit.iterations`
  (iterations, converged, winning replicate) -- `fit_sem`;
* `fit.threads` -- the same six parts, in that order, of `fit_sem` with
  `threads=4`: its replicates run in other stacks, and it must equal them;
* `fit.bundle` -- the same six parts, in that order, of that fit after a
  round trip through a fit bundle (`save_fit`, `load_fit`), whose matrices
  are views of the mapped payload; it must equal them;
* `infer` -- every `infer_maps` map: effect, se, wald, pval, reject;
* `infer.wald` -- the effect, se, wald and pval of `wald_map` for group 1,
  exposure 0, computed with numpy's OpenBLAS pool at two threads (the
  default pool where `_blas.pool()` finds none); it must equal the first
  four arrays of `infer`, that pair's map, which holds only while every
  Wald map pins the pool;
* `validate.<mode>` -- `validate_projection`'s MSEs and fallbacks per mode;
* `validate.fresh` -- the three modes, in that order, on a Dataset rebuilt
  over a copy of the images, which holds no projection record yet; it must
  equal them;
* `select.choice`, `select.bic` (each candidate's Q and BIC) and
  `select.labels` -- `select_k`;
* `select.threads` -- the same three parts of `select_k` with `threads=2`,
  which must equal them (below `selection.THREADED_N` subjects, as here,
  `select_k` runs one stack per candidate whatever `threads`;
  `tests/test_selection.py` covers the threaded path);
* `kmlr.*` (the six parts of a fit, as for `fit_sem`) and `svcm` -- the two
  baselines;
* `kmlr.infer` -- the `infer_maps` maps, as for `infer`, of the KMLR fit, on
  the selection shape's basis, so that the variance field is digested at a
  second degree (at the desk shapes, 10^3 with h=9 beside 15^3 with h=12);
* `ellipsoid.lattice`, `ellipsoid.basis`, `ellipsoid.project` and
  `ellipsoid.fit.*` -- on a small ellipsoid mask: the lattice's `coords`,
  `build_basis`, the images' projection on that basis and their squared
  norms, and `fit_sem`.

The `desk` shapes are those of the benchmark's desk workload (15^3, n=500,
K=3, 6 restarts, 50 splits; selection and baselines at 10^3, n=300) plus a
14 x 13 x 12 ellipsoid; `tiny` runs in about a second.

    python tools/digest.py --against REF [--seeds S ...] [--shapes ...]

computes the same outputs with the package source at the git revision REF
as well (`git archive REF src`, unpacked into a temporary directory by
`revision.py` and imported by a subprocess), prints each output that
differs with the largest relative difference of its values,
|now - REF| / |REF|, and exits 1 if any output differs. Both sides run in
subprocesses importing `src` of the repository that holds the current
directory, or of the archive.

Either way, the tool also exits 1, naming the seed, when `load` differs
from `project`, `fit.threads` from the `fit.*` parts at one thread,
`fit.bundle` from the `fit.*` parts before the round trip,
`select.threads` from the `select.*` parts at one thread,
`validate.fresh` from the `validate.*` outputs, or `infer.wald` from its
map in `infer`.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from revision import archive, toplevel, unpack  # noqa: E402

SHAPES = {
    "desk": {"dims": (15, 15, 15), "n": 500, "sites": 21, "K": 3, "restarts": 6, "splits": 50,
             "select_dims": (10, 10, 10), "select_n": 300, "select_K": (1, 2, 3),
             "select_restarts": 4,
             "ellipsoid": (14, 13, 12), "ellipsoid_n": 120, "ellipsoid_h": 4},
    "tiny": {"dims": (5, 5, 5), "n": 40, "sites": 3, "K": 2, "restarts": 2, "splits": 3,
             "select_dims": (4, 4, 4), "select_n": 60, "select_K": (1, 2),
             "select_restarts": 2,
             "ellipsoid": (6, 6, 5), "ellipsoid_n": 30, "ellipsoid_h": 2},
}
SEEDS = (9101, 9202, 9303)
MODES = ("within", "without", "shuffled")
FIT_PARTS = ("labels", "theta", "lam", "w", "q", "iterations")
SELECT_PARTS = ("choice", "bic", "labels")
# output -> (the outputs whose arrays, in order, it must equal, each a name
# or a (name, slice of its arrays) pair; what it is)
SAME = {"load": (["project"], "the images, projection and squared norms in memory"),
        "fit.threads": ([f"fit.{part}" for part in FIT_PARTS], "fit.* at threads=1"),
        "fit.bundle": ([f"fit.{part}" for part in FIT_PARTS],
                       "fit.* before save_fit and load_fit"),
        "select.threads": ([f"select.{part}" for part in SELECT_PARTS],
                           "select.* at threads=1"),
        "validate.fresh": ([f"validate.{mode}" for mode in MODES],
                           "validate.* on a rebuilt dataset"),
        "infer.wald": ([("infer", slice(0, 4))], "its map in infer, at one thread")}


def fit_parts(fit) -> dict:
    """part name (`FIT_PARTS`) -> list of arrays of a FitResult."""
    p = fit.params
    return {"labels": [fit.labels], "theta": [p.theta_alpha, p.theta_eta, p.theta_gamma],
            "lam": [p.lam], "w": [p.w], "q": [fit.q_trace],
            "iterations": [np.array([fit.iterations, fit.converged, fit.replicate])]}


def outputs(seed: int, shape: dict) -> dict:
    """name -> list of arrays, for one seed at the given shapes."""
    import lasir
    from lasir import _blas, bundles
    from lasir import lattice as lattice_module
    from lasir import projection
    from lasir.simulate import KERNEL

    out = {}

    def add_fit(prefix, fit):
        out.update({f"{prefix}.{part}": arrays for part, arrays in fit_parts(fit).items()})

    def simulate(dims, n, K, offset, **extra):
        return lasir.simulate_cube(lasir.SimConfig(dims=dims, n=n, n_groups=K,
                                                   n_sites=shape["sites"], seed=seed + offset,
                                                   **extra))

    dataset, truth, lattice, basis = simulate(shape["dims"], shape["n"], shape["K"], 0)
    out["simulate"] = [dataset.images, dataset.exposures, dataset.controls, dataset.sites,
                       truth.labels, basis.psi]
    record = projection.projected(dataset, basis)
    out["project"] = [dataset.images, record.ytilde, record.sq_norms]
    chunks = lattice_module.CHUNK, projection.CHUNK, projection.IMAGE_CHUNK
    parallel = vars(_blas).get("PARALLEL_VALUES")  # absent from older sources
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "images")
        lasir.save_dataset(dataset, lattice, base, base + ".csv")
        # one row per chunk: `projection.CHUNK` (float64s of a part's buffers)
        # is below what any row takes; and every pass is dealt, however few
        # values it streams
        lattice_module.CHUNK = projection.IMAGE_CHUNK = lattice.d
        projection.CHUNK = 1
        _blas.PARALLEL_VALUES = 0
        try:
            loaded = lasir.load_dataset(base, base + ".csv", lattice)
            streamed = projection.projected(loaded, basis)
            out["load"] = [loaded.images, streamed.ytilde, streamed.sq_norms]
        finally:
            lattice_module.CHUNK, projection.CHUNK, projection.IMAGE_CHUNK = chunks
            _blas.PARALLEL_VALUES = parallel
    fit = lasir.fit_sem(dataset, basis, shape["K"],
                        lasir.SemConfig(restarts=shape["restarts"], seed=seed))
    add_fit("fit", fit)
    with tempfile.TemporaryDirectory() as tmp:
        bundles.save_fit(fit, os.path.join(tmp, "fit"))
        loaded = bundles.load_fit(os.path.join(tmp, "fit"))
    out["fit.bundle"] = [a for arrays in fit_parts(loaded).values() for a in arrays]
    threaded = lasir.fit_sem(dataset, basis, shape["K"],
                             lasir.SemConfig(restarts=shape["restarts"], seed=seed, threads=4))
    out["fit.threads"] = [a for arrays in fit_parts(threaded).values() for a in arrays]
    def infer(fit, data, basis):
        return [a for m in lasir.infer_maps(fit, data, basis)
                for a in (m.effect, m.se, m.wald, m.pval, m.reject)]

    out["infer"] = infer(fit, dataset, basis)
    pool = _blas.pool()
    before = None if pool is None else pool.get()
    if pool is not None:
        pool.set(2)
    try:
        alone = lasir.wald_map(fit, dataset, basis, 1, 0)
    finally:
        if pool is not None:
            pool.set(before)
    out["infer.wald"] = [alone.effect, alone.se, alone.wald, alone.pval]
    def validate(data, mode):
        res = lasir.validate_projection(data, basis, fit, mode, n_splits=shape["splits"],
                                        seed=seed)
        return [res.mse, np.array([res.unseen_fallbacks])]

    for mode in MODES:
        out[f"validate.{mode}"] = validate(dataset, mode)
    fresh = lasir.Dataset(images=dataset.images.copy(), exposures=dataset.exposures,
                          controls=dataset.controls, sites=dataset.sites)
    out["validate.fresh"] = [a for mode in MODES for a in validate(fresh, mode)]

    single, _, _, basis1 = simulate(shape["select_dims"], shape["select_n"], 1, 1)

    def select(threads):
        best, records, fits = lasir.select_k(
            single, basis1, list(shape["select_K"]),
            lasir.SemConfig(restarts=shape["select_restarts"], seed=seed + 1, threads=threads))
        return [[np.array([best] + [r.n_groups for r in records])],
                [np.array([[r.q, r.bic] for r in records])],
                [fits[r.n_groups].labels for r in records]]

    out.update({f"select.{part}": arrays for part, arrays in zip(SELECT_PARTS, select(1))})
    out["select.threads"] = [a for arrays in select(2) for a in arrays]
    three, _, _, _ = simulate(shape["select_dims"], shape["select_n"], 3, 2)
    kmlr = lasir.kmlr_fit(three, basis1, 3, lasir.SemConfig(seed=seed + 2))
    add_fit("kmlr", kmlr)
    out["kmlr.infer"] = infer(kmlr, three, basis1)
    svcm = lasir.svcm_fit(three, basis1)
    out["svcm"] = [svcm.theta_alpha, svcm.theta_eta, svcm.theta_gamma, svcm.lam]

    dims = shape["ellipsoid"]
    grids = np.meshgrid(*(np.linspace(-1.0, 1.0, m) for m in dims), indexing="ij")
    mask = sum((g / s) ** 2 for g, s in zip(grids, (0.9, 0.9, 0.85))) <= 1.0
    blob, _, lattice, _ = simulate(dims, shape["ellipsoid_n"], 2, 3, mask=mask,
                                   basis_degree=shape["ellipsoid_h"])
    out["ellipsoid.lattice"] = [lattice.coords]
    built = lasir.build_basis(lattice, KERNEL, shape["ellipsoid_h"])
    out["ellipsoid.basis"] = [built.psi]
    record = projection.projected(blob, built)
    out["ellipsoid.project"] = [record.ytilde, record.sq_norms]
    add_fit("ellipsoid.fit", lasir.fit_sem(blob, built, 2,
                                           lasir.SemConfig(restarts=2, seed=seed + 3)))
    return {name: [np.asarray(a) for a in arrays] for name, arrays in out.items()}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def relative_difference(now, ref) -> float:
    """Largest |now - ref| / |ref| over the values of two array lists; inf
    when the shapes differ or a zero of `ref` moved."""
    worst = 0.0
    for a, b in zip(now, ref):
        if a.shape != b.shape:
            return float("inf")
        a, b = a.astype(np.float64), b.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(a == b, 0.0, np.abs(a - b) / np.abs(b))
        worst = max(worst, float(rel.max(initial=0.0)))
    return worst if len(now) == len(ref) else float("inf")


def _dump(path, seeds, shapes):
    flat = {}
    for seed in seeds:
        for name, arrays in outputs(seed, SHAPES[shapes]).items():
            for i, a in enumerate(arrays):
                flat[f"{seed}/{name}/{i}"] = a
    np.savez(path, **flat)


def _load(path) -> dict:
    """(seed, name) -> list of arrays, from a `_dump` file."""
    out = {}
    with np.load(path) as data:
        for key in sorted(data.files, key=lambda k: int(k.rsplit("/", 1)[1])):
            seed, name, _ = key.split("/")
            out.setdefault((int(seed), name), []).append(data[key])
    return out


def mismatches(outputs: dict) -> list:
    """(seed, name) of each `SAME` output that differs from its parts."""
    def parts(seed, name):
        for part in SAME[name][0]:
            part, rows = part if isinstance(part, tuple) else (part, slice(None))
            yield from outputs[(seed, part)][rows]

    return [(seed, name) for (seed, name), arrays in outputs.items() if name in SAME
            and digest(arrays) != digest(list(parts(seed, name)))]


def _run(src: Path, seeds, shapes, path) -> dict:
    """The outputs computed in a subprocess that imports lasir from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(path),
                    "--shapes", shapes, "--seeds", *map(str, seeds)], env=env, check=True)
    return _load(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest lasir's outputs at given seeds.")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--shapes", choices=sorted(SHAPES), default="desk")
    parser.add_argument("--against", metavar="REF", help="also compute at this git revision")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        _dump(args.dump, args.seeds, args.shapes)
        return 0
    try:
        top = toplevel()
        tar = None if args.against is None else archive(args.against, "src")
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            now = _run(top / "src", args.seeds, args.shapes, tmp / "now.npz")
            if tar is not None:
                ref = _run(unpack(tar, tmp / "ref") / "src", args.seeds, args.shapes,
                           tmp / "ref.npz")
        except subprocess.CalledProcessError as exc:
            print(f"error: computing the outputs failed ({exc})", file=sys.stderr)
            return 1
    mismatched = mismatches(now)
    for seed, name in mismatched:
        print(f"{seed}  {name} differs from {SAME[name][1]}", file=sys.stderr)
    if tar is None:
        for (seed, name), arrays in now.items():
            print(f"{seed}  {name:<22}  {digest(arrays)}")
        return 1 if mismatched else 0
    keys = list(now) + [key for key in ref if key not in now]
    differ = 0
    for key in keys:
        a, b = now.get(key, []), ref.get(key, [])
        if a and b and digest(a) == digest(b):
            continue
        differ += 1
        rel = relative_difference(a, b) if a and b else float("inf")
        print(f"{key[0]}  {key[1]:<22}  differs, max relative difference {rel:.3g}")
    print(f"{differ} of {len(keys)} outputs differ from {args.against}")
    return 1 if differ or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
