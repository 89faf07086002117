import pickle
import threading

import numpy as np
import pytest

from lasir import SemConfig, SimConfig, m_step, param_count, project, select_k, simulate_cube
from lasir import selection as selection_module
from lasir import sem as sem_module
from lasir.selection import BicRecord, _choose


class TestParamCount:
    def test_reported_example(self):
        # 2730 + 10010 + 4 + 455
        assert param_count(3, 455, 1, 1, 21) == 13199

    def test_single_group_instantiation(self):
        L, p, q, S = 20, 2, 3, 4
        assert param_count(1, L, p, q, S) == L * (p + 1) + (S + q) * L + L

    def test_affine_increasing_in_groups(self):
        L, p, q, S = 10, 1, 2, 3
        counts = [param_count(K, L, p, q, S) for K in range(1, 6)]
        steps = np.diff(counts)
        assert np.all(steps == steps[0])
        assert steps[0] > 0

    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_counts_the_free_entries_of_a_fit(self, n_groups):
        cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=2, sigma=1.0, seed=0, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        labels = np.arange(dataset.n) % n_groups + 1
        params = m_step(project(dataset.images, basis), dataset, labels, n_groups)
        # the last gating row is the pinned reference class, not estimated
        free = sum(a.size for a in (params.theta_alpha, params.theta_eta, params.theta_gamma,
                                    params.lam, params.w[:-1]))
        assert param_count(n_groups, basis.L, dataset.p, dataset.q, dataset.n_sites) == free


class TestChoose:
    def test_minimizer_wins(self):
        records = [BicRecord(1, 10, -5.0, 100.0), BicRecord(2, 20, -4.0, 90.0),
                   BicRecord(3, 30, -3.0, 95.0)]
        assert _choose(records).n_groups == 2

    def test_tie_breaks_toward_fewer_groups(self):
        records = [BicRecord(3, 30, -3.0, 90.0), BicRecord(2, 20, -4.0, 90.0)]
        assert _choose(records).n_groups == 2


class TestSelectK:
    def test_single_candidate(self):
        cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=0, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        best, records, fits = select_k(dataset, basis, [2], SemConfig(restarts=2, seed=1))
        assert best == 2
        assert len(records) == 1
        assert 2 in fits

    def test_bic_recomputable_from_record(self):
        cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=0, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        _, records, _ = select_k(dataset, basis, [1, 2], SemConfig(restarts=2, seed=1))
        for rec in records:
            expect = rec.n_params * np.log(dataset.n * basis.L) - 2.0 * rec.q
            assert rec.bic == pytest.approx(expect, rel=1e-12)

    def test_prefers_single_group_on_homogeneous_data(self):
        cfg = SimConfig(dims=(6, 6, 6), n=150, n_groups=1, sigma=1.0, seed=5)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        best, records, _ = select_k(dataset, basis, [1, 2], SemConfig(restarts=3, seed=2))
        assert best == 1

    def test_recovers_three_groups(self):
        cfg = SimConfig(dims=(8, 8, 8), n=300, n_groups=3, sigma=1.0, seed=17)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        best, records, _ = select_k(dataset, basis, [1, 2, 3, 4],
                                    SemConfig(restarts=3, seed=6))
        assert best == 3

    def test_empty_candidates(self):
        cfg = SimConfig(dims=(5, 5, 5), n=50, n_groups=1, sigma=1.0, seed=0, n_sites=2)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        with pytest.raises(ValueError, match="no candidate"):
            select_k(dataset, basis, [], SemConfig())

    @pytest.mark.parametrize("candidates, named", [
        ([1, 0], "got 0"), ([-2, 1], "got -2"), ([1, 2.5], "got 2.5"), ([2.0], "got 2.0"),
        (["2"], "got '2'"), ([2, 1, 2], "each listed once, got 2 twice")])
    def test_candidates_checked_before_projecting(self, candidates, named, monkeypatch):
        cfg = SimConfig(dims=(5, 5, 5), n=50, n_groups=1, sigma=1.0, seed=0, n_sites=2)
        dataset, truth, lattice, basis = simulate_cube(cfg)

        def unreachable(*args):
            raise AssertionError("projected before checking the candidates")

        monkeypatch.setattr(selection_module, "projected", unreachable)
        with pytest.raises(ValueError, match="candidate group counts must be integers >= 1, "
                                             + named):
            select_k(dataset, basis, candidates, SemConfig())

    @pytest.mark.parametrize("threaded_n, stacks", [(61, 1), (60, 2)])
    def test_few_subjects_run_on_the_calling_thread(self, threaded_n, stacks, monkeypatch):
        # below THREADED_N subjects each candidate's restarts are one stack on
        # the calling thread; from it on they are dealt to `threads` stacks
        cfg = SimConfig(dims=(4, 4, 4), n=60, n_groups=2, sigma=1.0, seed=3, n_sites=2)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        seen, m_step_now = [], sem_module.m_step

        def recorded(*args, **kwargs):
            seen.append(threading.get_ident())
            return m_step_now(*args, **kwargs)

        monkeypatch.setattr(sem_module, "m_step", recorded)
        monkeypatch.setattr(selection_module, "THREADED_N", threaded_n)
        select_k(dataset, basis, [1, 2, 3], SemConfig(restarts=4, seed=1, threads=2))
        workers = set(seen) - {threading.get_ident()}
        assert len(seen) > 3 and len(workers) == (stacks if stacks > 1 else 0)

    @pytest.mark.parametrize("threaded_n", [1000, 0])
    def test_results_do_not_depend_on_threads(self, threaded_n, monkeypatch):
        monkeypatch.setattr(selection_module, "THREADED_N", threaded_n)
        cfg = SimConfig(dims=(4, 4, 4), n=60, n_groups=2, sigma=1.0, seed=4, n_sites=2)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        runs = [pickle.dumps(select_k(dataset, basis, [1, 2, 3],
                                      SemConfig(restarts=3, seed=8, threads=threads)))
                for threads in (1, 2, 3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
