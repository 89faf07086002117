"""The benchmark's two workloads: how each makes its inputs and what one
pass times.

Every call into lasir goes through a module attribute (``lasir.fit_sem``,
``bundles.save_basis``) so that the traced run, which swaps those
attributes for wrappers, sees it.

* ``desk``: a 15^3 full cube, n=500, K=3: `fit_sem`, `infer_maps` and
  `validate_projection`, where thousands of tiny regressions (2x2 to 22x22
  designs against 455 columns) make `sem` and `linmodel` do nearly all the
  work and expose BLAS-pool overhead. Then, at 10^3 and n=300, `select_k`
  over K=1..3 on two replicate threads that compete with the BLAS pool, and
  the KMLR and SVCM baselines: the same M-step reached through selection and
  the baselines, with one re-projection per candidate and baseline. (The
  selection part alone varies by about 25% between identical runs, so it is
  timed inside the steadier desk pass rather than as a workload of its own.)
* ``masked``: an ellipsoid inside the 91x109x91 MNI 2 mm box (d=315,481),
  n=200, K=2. The d x L basis and the n x d images set both time and peak
  RSS; the EM loop is small.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import lasir  # noqa: E402
from lasir import bundles  # noqa: E402

KERNEL = (0.01, 2.0)  # SimConfig's default kernel, which the fits reuse
ALPHA = 0.05
MODES = ("within", "without", "shuffled")
# Fit quality against the simulated truth, with units: printed and recorded,
# not gated (one masked instance per run makes them vary 15-40% across seeds).
QUALITY = {"nmi": "1", "alpha_mse": "units2"}


def plan(workload, seconds, trace):
    """(passes, instances) of a run.

    The pass count comes from `seconds` and the workload's nominal pass time
    (as measured on a 2-core x86-64 machine), not from the clock, so that two
    commits run the same passes on the same inputs; at least two untraced
    passes, or one untraced+traced pair. Pass i uses instance i modulo the
    instance count.
    """
    per_pass = workload.nominal_pass_s * (2 if trace else 1)
    passes = max(1 if trace else 2, int(seconds // per_pass))
    return passes, min(passes, workload.max_instances)


def instance_seeds(run_seed, index):
    """Three 32-bit seeds for input instance (or pass) `index` of a run."""
    return [int(s) for s in np.random.SeedSequence([run_seed, index]).generate_state(3)]


class Stages:
    """Wall and CPU seconds per named stage of one pass."""

    def __init__(self):
        self.wall = {}
        self.cpu = {}

    @contextmanager
    def __call__(self, name):
        wall, cpu = perf_counter(), process_time()
        yield
        self.wall[name] = self.wall.get(name, 0.0) + perf_counter() - wall
        self.cpu[name] = self.cpu.get(name, 0.0) + process_time() - cpu


def _rows_sum_to_one(resp):
    return bool(np.all(np.abs(resp.sum(axis=1) - 1.0) <= 1e-10))


def _pvals_in_unit_interval(maps):
    return all(bool(np.all((m.pval >= 0.0) & (m.pval <= 1.0))) for m in maps)


def alpha_mse(fit, truth, basis):
    """Exposure-map MSE against the truth after aligning the group labels.

    The alpha-MSE of `lasir.study.evaluate_fit` without its beta-MSE, which
    builds n x (p+1) x d arrays (about 1 GB each on the masked lattice) and
    would set the measured process's peak RSS.
    """
    K = fit.params.n_groups
    perm = lasir.match_groups(fit.labels, truth.labels, K)
    est = np.stack([lasir.backproject(fit.params.theta_alpha[k], basis) for k in range(K)])
    aligned = np.empty_like(est)
    aligned[perm - 1] = est
    return lasir.mse_svc(aligned, truth.alpha)


def _save_sim(out, dataset, lattice, truth, tag=""):
    lasir.save_dataset(dataset, lattice, os.path.join(out, f"images{tag}"),
                       os.path.join(out, f"covariates{tag}.csv"))
    bundles.save_truth(truth, os.path.join(out, f"truth{tag}"))


def _load_sim(src, tag=""):
    images = os.path.join(src, f"images{tag}")
    lattice = lasir.lattice_from_volume(images)
    dataset = lasir.load_dataset(images, os.path.join(src, f"covariates{tag}.csv"), lattice)
    return dataset, bundles.load_truth(os.path.join(src, f"truth{tag}"))


class Desk:
    """Desk scale: the 15^3 fit, its Wald maps and holdout validation, then
    the choice of K and the two baselines at 10^3."""

    name = "desk"
    params = {"dims": [15, 15, 15], "n": 500, "K": 3,
              "select_dims": [10, 10, 10], "select_n": 300, "select_K": [1, 2, 3],
              "baseline_K": 3}
    restarts, threads, splits = 6, 1, 50
    select_restarts, select_threads = 4, 2
    nominal_pass_s, max_instances = 16.0, 1000
    # fit_sem, infer_maps, three validate_projection calls, select_k, kmlr_fit,
    # svcm_fit; plus the replicates of the fit and of the K=2 and K=3 candidates
    operations = 8 + restarts + 2 * select_restarts

    def generate(self, seeds, out):
        p = self.params
        dataset, truth, lattice, basis = lasir.simulate_cube(lasir.SimConfig(
            dims=tuple(p["dims"]), n=p["n"], n_groups=p["K"], seed=seeds[0]))
        _save_sim(out, dataset, lattice, truth)
        bundles.save_basis(basis, os.path.join(out, "basis"))
        dims = tuple(p["select_dims"])
        single, truth1, lattice, basis = lasir.simulate_cube(lasir.SimConfig(
            dims=dims, n=p["select_n"], n_groups=1, seed=seeds[1]))
        _save_sim(out, single, lattice, truth1, tag="1")
        bundles.save_basis(basis, os.path.join(out, "basis1"))
        three, truth3, lattice, _ = lasir.simulate_cube(lasir.SimConfig(
            dims=dims, n=p["select_n"], n_groups=p["baseline_K"], seed=seeds[2]))
        _save_sim(out, three, lattice, truth3, tag="3")

    def load(self, src):
        dataset, truth = _load_sim(src)
        single, _ = _load_sim(src, tag="1")
        three, _ = _load_sim(src, tag="3")
        return {"dataset": dataset, "truth": truth,
                "basis": bundles.load_basis(os.path.join(src, "basis")),
                "single": single, "three": three,
                "basis1": bundles.load_basis(os.path.join(src, "basis1"))}

    def replicate_threads(self, threads):
        return {"fit_sem": threads or self.threads, "select_k": threads or self.select_threads}

    def run(self, inputs, seeds, threads, stages, work):
        dataset, basis = inputs["dataset"], inputs["basis"]
        config = lasir.SemConfig(restarts=self.restarts, seed=seeds[0],
                                 threads=threads or self.threads)
        with stages("fit"):
            fit = lasir.fit_sem(dataset, basis, self.params["K"], config)
        with stages("infer"):
            maps = lasir.infer_maps(fit, dataset, basis, alpha=ALPHA)
        with stages("validate"):
            val = [lasir.validate_projection(dataset, basis, fit, mode,
                                             n_splits=self.splits, seed=seeds[0])
                   for mode in MODES]
        basis1 = inputs["basis1"]
        with stages("select"):
            best, _, fits = lasir.select_k(
                inputs["single"], basis1, self.params["select_K"],
                lasir.SemConfig(restarts=self.select_restarts, seed=seeds[1],
                                threads=threads or self.select_threads))
        with stages("baselines"):
            kmlr = lasir.kmlr_fit(inputs["three"], basis1, self.params["baseline_K"],
                                  lasir.SemConfig(restarts=self.select_restarts, seed=seeds[2]))
            svcm = lasir.svcm_fit(inputs["three"], basis1)
        return {"fit": fit, "maps": maps, "val": val, "best": best, "fits": fits,
                "kmlr": kmlr, "svcm": svcm}

    def check(self, inputs, out):
        fit, truth = out["fit"], inputs["truth"]
        failures = []
        if not _rows_sum_to_one(fit.responsibilities):
            failures.append("fit: responsibility rows do not sum to 1")
        if not _pvals_in_unit_interval(out["maps"]):
            failures.append("infer: p-value outside [0, 1]")
        if not all(np.all(np.isfinite(v.mse)) for v in out["val"]):
            failures.append("validate: non-finite holdout MSE")
        if out["best"] != 1:
            failures.append(f"select: chose K={out['best']} on single-group data")
        if not all(_rows_sum_to_one(f.responsibilities) for f in out["fits"].values()):
            failures.append("select: responsibility rows do not sum to 1")
        if not _rows_sum_to_one(out["kmlr"].responsibilities):
            failures.append("baselines: KMLR responsibility rows do not sum to 1")
        if not np.all(np.isfinite(out["svcm"].theta_alpha)):
            failures.append("baselines: non-finite SVCM coefficients")
        quality = {"nmi": lasir.nmi(fit.labels, truth.labels),
                   "alpha_mse": alpha_mse(fit, truth, inputs["basis"])}
        return failures, quality

    def shape(self, inputs):
        return {"n": inputs["dataset"].n, "d": inputs["basis"].d,
                "L": inputs["basis"].L, "K": self.params["K"],
                "select": {"n": inputs["single"].n, "d": inputs["basis1"].d,
                           "L": inputs["basis1"].L, "K": self.params["select_K"]}}


def ellipsoid_mask(dims, semi_axes):
    """Voxels inside an axis-aligned ellipsoid on the normalised [-1, 1]^3 box."""
    axes = [np.linspace(-1.0, 1.0, m) for m in dims]
    grids = np.meshgrid(*axes, indexing="ij")
    return sum((g / s) ** 2 for g, s in zip(grids, semi_axes)) <= 1.0


class Masked:
    name = "masked"
    params = {"dims": [91, 109, 91], "semi_axes": [0.9, 0.9, 0.85], "n": 200,
              "K": 2, "h": 8}
    restarts, threads = 2, 1
    # one instance, because simulating it takes about 10 s and 2 GB
    nominal_pass_s, max_instances = 9.0, 1
    # lattice_from_volume, load_dataset, build_basis, save_basis, load_basis,
    # fit_sem, infer_maps; plus replicates
    operations = 7 + restarts

    def replicate_threads(self, threads):
        return {"fit_sem": threads or self.threads}

    def generate(self, seeds, out):
        p = self.params
        mask = ellipsoid_mask(p["dims"], p["semi_axes"])
        dataset, truth, lattice, _ = lasir.simulate_cube(lasir.SimConfig(
            dims=tuple(p["dims"]), mask=mask, n=p["n"], n_groups=p["K"],
            basis_degree=p["h"], seed=seeds[0]))
        _save_sim(out, dataset, lattice, truth)

    def load(self, src):
        return {"src": src, "truth": bundles.load_truth(os.path.join(src, "truth"))}

    def run(self, inputs, seeds, threads, stages, work):
        images = os.path.join(inputs["src"], "images")
        with stages("load"):
            lattice = lasir.lattice_from_volume(images)
            dataset = lasir.load_dataset(images, os.path.join(inputs["src"], "covariates.csv"),
                                         lattice)
        with stages("basis"):
            built = lasir.build_basis(lattice, lasir.KernelParams(*KERNEL), self.params["h"])
        prefix = os.path.join(work, "basis")
        with stages("bundle"):
            bundles.save_basis(built, prefix)
            basis = bundles.load_basis(prefix)
        same = bool(np.array_equal(built.psi, basis.psi))
        del built
        config = lasir.SemConfig(restarts=self.restarts, seed=seeds[0],
                                 threads=threads or self.threads)
        with stages("fit"):
            fit = lasir.fit_sem(dataset, basis, self.params["K"], config)
        with stages("infer"):
            maps = lasir.infer_maps(fit, dataset, basis, alpha=ALPHA)
        return {"dataset": dataset, "basis": basis, "same": same, "fit": fit, "maps": maps}

    def check(self, inputs, out):
        fit, basis = out["fit"], out["basis"]
        failures = []
        gram = basis.psi.T @ basis.psi
        gram[np.diag_indices_from(gram)] -= 1.0
        if not np.abs(gram).max() <= 1e-8:
            failures.append(f"basis: max|psi'psi - I| = {np.abs(gram).max():.3g} > 1e-8")
        if not out["same"]:
            failures.append("bundle: basis changed in the save/load round trip")
        if not _rows_sum_to_one(fit.responsibilities):
            failures.append("fit: responsibility rows do not sum to 1")
        if not _pvals_in_unit_interval(out["maps"]):
            failures.append("infer: p-value outside [0, 1]")
        quality = {"nmi": lasir.nmi(fit.labels, inputs["truth"].labels),
                   "alpha_mse": alpha_mse(fit, inputs["truth"], basis)}
        return failures, quality

    def shape(self, inputs):
        return {"n": self.params["n"],
                "d": int(ellipsoid_mask(self.params["dims"], self.params["semi_axes"]).sum()),
                "L": lasir.basis_size(self.params["h"]), "K": self.params["K"]}


WORKLOADS = {w.name: w for w in (Desk(), Masked())}
