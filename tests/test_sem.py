import dataclasses
import logging
import os
import re
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import stats

import lasir
from lasir import (Dataset, KernelParams, SemConfig, SimConfig, augment, e_step, fit_sem,
                   gating_probs, m_step, nmi, q_value, s_step, simulate_cube, svcm_fit)
from lasir.basis import BasisSystem
from lasir.linmodel import LAMBDA_FLOOR, MNLOGIT_RIDGE, _mnlogit_newton, log_gating, mnlogit_fit
from lasir.projection import project
from lasir import sem as sem_module
from lasir.sem import (DegenerateGroupError, ModelParams, Problem, _log_density, fit_problem,
                       predict_from_sums, prepare, stage2)


def _identity_basis(d):
    return BasisSystem(psi=np.eye(d), eigvals=np.ones(d), h=0,
                       params=KernelParams(0.01, 2.0))


def _plain_dataset(n, d, rng, n_sites=1, q=0, p=1):
    """Dataset with direct control over the design pieces."""
    images = rng.standard_normal((n, d)).astype(np.float32)
    exposures = np.column_stack([np.ones(n), rng.standard_normal((n, p))]) \
        if p else np.ones((n, 1))
    controls = rng.standard_normal((n, q)) if q else np.zeros((n, 0))
    site_idx = rng.integers(n_sites, size=n)
    sites = np.zeros((n, n_sites))
    sites[np.arange(n), site_idx] = 1.0
    return Dataset(images=images, exposures=exposures, controls=controls, sites=sites)


def _orthogonal_two_group_data(L=4, per_group=6):
    """Noiseless data whose truth lies in the range of the two-stage M-step:
    per-group exposures centered, group intercept coefficients summing to
    zero, a single site, no controls."""
    rng = np.random.default_rng(10)
    n = 2 * per_group
    labels = np.repeat([1, 2], per_group)
    x = np.tile([-1.0, 1.0], per_group)  # centered within each group
    exposures = np.column_stack([np.ones(n), x])
    theta_gamma = rng.standard_normal((1, L))
    theta_alpha = rng.standard_normal((2, 2, L))
    theta_alpha[1, 0] = -theta_alpha[0, 0]  # intercepts cancel in the mean
    ytilde = np.ones((n, 1)) @ theta_gamma
    for k in (1, 2):
        rows = labels == k
        ytilde[rows] += exposures[rows] @ theta_alpha[k - 1]
    dataset = Dataset(images=np.zeros((n, L), dtype=np.float32),
                      exposures=exposures, controls=np.zeros((n, 0)),
                      sites=np.ones((n, 1)))
    return ytilde, dataset, labels, theta_gamma, theta_alpha


class TestEStep:
    def test_identical_groups_give_gating_priors(self):
        rng = np.random.default_rng(0)
        n, L, K = 12, 5, 3
        dataset = _plain_dataset(n, L, rng, q=1)
        ytilde = rng.standard_normal((n, L))
        shared = rng.standard_normal((1, 2, L))
        w = rng.standard_normal((K, 2))
        w[-1] = 0.0
        params = ModelParams(theta_alpha=np.repeat(shared, K, axis=0),
                             theta_eta=rng.standard_normal((1, L)),
                             theta_gamma=rng.standard_normal((1, L)),
                             lam=np.full(L, 0.7), w=w)
        resp = e_step(ytilde, dataset, params)
        from lasir import augment, gating_probs
        priors = gating_probs(w, augment(dataset.controls))
        assert np.allclose(resp, priors, atol=1e-12)

    def test_two_group_normal_density_ratio(self):
        # residual 0 under group 1, residual 2 under group 2, unit variance,
        # equal priors: p1 = phi(0) / (phi(0) + phi(2))
        dataset = _plain_dataset(1, 1, np.random.default_rng(1), p=0, q=0)
        ytilde = np.array([[0.0]])
        params = ModelParams(theta_alpha=np.array([[[0.0]], [[2.0]]]),
                             theta_eta=np.zeros((0, 1)),
                             theta_gamma=np.zeros((1, 1)),
                             lam=np.array([1.0]),
                             w=np.zeros((2, 1)))
        resp = e_step(ytilde, dataset, params)
        assert resp[0, 0] == pytest.approx(0.8807970779778823, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        dataset = _plain_dataset(30, 6, rng, n_sites=2, q=2)
        ytilde = rng.standard_normal((30, 6))
        params = ModelParams(theta_alpha=rng.standard_normal((3, 2, 6)),
                             theta_eta=rng.standard_normal((2, 6)),
                             theta_gamma=rng.standard_normal((2, 6)),
                             lam=np.abs(rng.standard_normal(6)) + 0.1,
                             w=np.vstack([rng.standard_normal((2, 3)), np.zeros(3)]))
        resp = e_step(ytilde, dataset, params)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_non_finite_density_reported(self):
        dataset = _plain_dataset(2, 2, np.random.default_rng(3), p=0, q=0)
        ytilde = np.array([[0.0, 0.0], [np.inf, 0.0]])
        params = ModelParams(theta_alpha=np.zeros((2, 1, 2)),
                             theta_eta=np.zeros((0, 2)),
                             theta_gamma=np.zeros((1, 2)),
                             lam=np.ones(2), w=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="individual 1"):
            e_step(ytilde, dataset, params)


class TestSStep:
    def test_certain_row_is_deterministic(self):
        resp = np.tile([1.0, 0.0, 0.0], (100, 1))
        labels = s_step(resp, np.random.default_rng(0))
        assert np.all(labels == 1)

    def test_seeded_draws_repeat(self):
        resp = np.random.default_rng(1).dirichlet(np.ones(4), size=50)
        a = s_step(resp, np.random.default_rng(7))
        b = s_step(resp, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_marginal_frequencies(self):
        resp = np.tile([0.2, 0.3, 0.5], (100_000, 1))
        labels = s_step(resp, np.random.default_rng(11))
        freq = np.bincount(labels, minlength=4)[1:] / labels.size
        assert np.abs(freq - [0.2, 0.3, 0.5]).max() < 0.01

    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 5), zeros=st.integers(0, 2),
           concentration=st.sampled_from([0.2, 1.0, 5.0]))
    @example(seed=196, K=4, zeros=0, concentration=0.2)  # a count of 2 against a mean of 0.124
    def test_marginal_distribution_per_row(self, seed, K, zeros, concentration):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(K, concentration), size=4)
        rows[:, :min(zeros, K - 1)] = 0.0  # impossible groups, never drawn
        rows /= rows.sum(axis=1, keepdims=True)
        draws = 20_000
        labels = s_step(np.repeat(rows, draws, axis=0), rng).reshape(4, draws)
        counts = np.stack([np.bincount(row, minlength=K + 1)[1:] for row in labels])
        assert np.all(counts[rows == 0.0] == 0)
        # exact two-sided binomial tails, at the per-cell level of a 5-sd normal bound
        level = 2.0 * stats.norm.cdf(-5.0)
        tail = np.minimum(stats.binom.cdf(counts, draws, rows),
                          stats.binom.sf(counts - 1, draws, rows))
        assert np.all(2.0 * tail > level)

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(12)
        resp = rng.dirichlet((3.0, 2.0, 1.0), size=200)
        perm = np.array([3, 1, 2])  # new index of old groups 1,2,3
        a = s_step(resp, np.random.default_rng(5))
        b = s_step(resp[:, [1, 2, 0]], np.random.default_rng(5))
        assert np.array_equal(perm[a - 1], b)


class TestMStep:
    def test_noiseless_exact_recovery(self):
        ytilde, dataset, labels, theta_gamma, theta_alpha = _orthogonal_two_group_data()
        params = m_step(ytilde, dataset, labels, 2)
        assert np.allclose(params.theta_gamma, theta_gamma, atol=1e-8)
        assert np.allclose(params.theta_alpha, theta_alpha, atol=1e-8)
        assert np.all(params.lam == 1e-10)

    def test_single_group_matches_svcm(self):
        cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=3, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        ytilde = project(dataset.images, basis)
        direct = m_step(ytilde, dataset, np.ones(60, dtype=int), 1)
        via_svcm = svcm_fit(dataset, basis)
        assert np.array_equal(direct.theta_alpha, via_svcm.theta_alpha)
        assert np.array_equal(direct.lam, via_svcm.lam)

    def test_label_permutation_permutes_alpha_rows(self):
        rng = np.random.default_rng(4)
        dataset = _plain_dataset(40, 6, rng, n_sites=2, q=1)
        ytilde = rng.standard_normal((40, 6))
        labels = rng.integers(1, 4, size=40)
        perm = np.array([2, 3, 1])
        p1 = m_step(ytilde, dataset, labels, 3)
        p2 = m_step(ytilde, dataset, perm[labels - 1], 3)
        for k in range(3):
            assert np.array_equal(p1.theta_alpha[k], p2.theta_alpha[perm[k] - 1])
        assert np.array_equal(p1.lam, p2.lam)

    def test_under_populated_group_signals(self):
        from lasir import DegenerateGroupError
        rng = np.random.default_rng(5)
        dataset = _plain_dataset(20, 4, rng)
        ytilde = rng.standard_normal((20, 4))
        labels = np.ones(20, dtype=int)
        labels[0] = 2  # group 2 has one member < p+2
        with pytest.raises(DegenerateGroupError, match="group 2"):
            m_step(ytilde, dataset, labels, 2)


class TestQValue:
    def _setup(self):
        rng = np.random.default_rng(6)
        dataset = _plain_dataset(25, 5, rng, n_sites=2, q=1)
        ytilde = rng.standard_normal((25, 5))
        labels = rng.integers(1, 3, size=25)
        params = m_step(ytilde, dataset, labels, 2)
        return ytilde, dataset, labels, params

    def test_doubling_lambda_has_analytic_effect(self):
        ytilde, dataset, labels, params = self._setup()
        q1 = q_value(ytilde, dataset, labels, params)
        doubled = ModelParams(theta_alpha=params.theta_alpha, theta_eta=params.theta_eta,
                              theta_gamma=params.theta_gamma, lam=2.0 * params.lam,
                              w=params.w)
        q2 = q_value(ytilde, dataset, labels, doubled)
        n, L = ytilde.shape
        mean = dataset.controls @ params.theta_eta + dataset.sites @ params.theta_gamma
        for k in (1, 2):
            rows = labels == k
            mean[rows] += dataset.exposures[rows] @ params.theta_alpha[k - 1]
        quad = ((ytilde - mean) ** 2 / params.lam).sum()
        expected_delta = -(n * L / 2.0) * np.log(2.0) + quad / 4.0
        assert q2 - q1 == pytest.approx(expected_delta, rel=1e-10)

    def test_additivity_of_perfect_individual(self):
        # with a single group the gating term is exactly zero, so adding an
        # individual with zero residual adds only its log-density constant
        rng = np.random.default_rng(7)
        dataset = _plain_dataset(10, 3, rng, p=0, q=0)
        ytilde = rng.standard_normal((10, 3))
        labels = np.ones(10, dtype=int)
        params = m_step(ytilde, dataset, labels, 1)
        q1 = q_value(ytilde, dataset, labels, params)

        new_row = params.theta_gamma[0] + params.theta_alpha[0, 0]
        dataset2 = Dataset(images=np.zeros((11, 3), dtype=np.float32),
                           exposures=np.ones((11, 1)),
                           controls=np.zeros((11, 0)), sites=np.ones((11, 1)))
        q2 = q_value(np.vstack([ytilde, new_row]), dataset2,
                     np.ones(11, dtype=int), params)
        log_density = -0.5 * np.sum(np.log(2.0 * np.pi * params.lam))
        assert q2 - q1 == pytest.approx(log_density, rel=1e-12)

    def test_bit_identical_reruns(self):
        ytilde, dataset, labels, params = self._setup()
        assert q_value(ytilde, dataset, labels, params) == \
            q_value(ytilde, dataset, labels, params)

    def test_group_count_shift_with_shared_parameters(self):
        # identical group parameters and zero gating: Q differs from the
        # single-group value by exactly n*log(1/K)
        rng = np.random.default_rng(8)
        dataset = _plain_dataset(18, 4, rng, q=1)
        ytilde = rng.standard_normal((18, 4))
        shared = rng.standard_normal((1, 2, 4))
        base = dict(theta_eta=rng.standard_normal((1, 4)),
                    theta_gamma=rng.standard_normal((1, 4)),
                    lam=np.full(4, 0.9))
        q_one = q_value(ytilde, dataset, np.ones(18, dtype=int),
                        ModelParams(theta_alpha=shared, w=np.zeros((1, 2)), **base))
        for K in (2, 4):
            labels = rng.integers(1, K + 1, size=18)
            q_k = q_value(ytilde, dataset, labels,
                          ModelParams(theta_alpha=np.repeat(shared, K, axis=0),
                                      w=np.zeros((K, 2)), **base))
            assert q_k - q_one == pytest.approx(18 * np.log(1.0 / K), rel=1e-10)

    def test_m_step_weakly_improves_q_at_fixed_labels(self):
        rng = np.random.default_rng(9)
        dataset = _plain_dataset(40, 5, rng, n_sites=2, q=1)
        ytilde = rng.standard_normal((40, 5))
        labels_old = rng.integers(1, 3, size=40)
        labels_new = rng.integers(1, 3, size=40)
        params_old = m_step(ytilde, dataset, labels_old, 2)
        params_new = m_step(ytilde, dataset, labels_new, 2)
        q_old = q_value(ytilde, dataset, labels_new, params_old)
        q_new = q_value(ytilde, dataset, labels_new, params_new)
        assert q_new >= q_old - 1e-6 * abs(q_old)


class TestSemConfig:
    @pytest.mark.parametrize("field, kwargs", [
        ("restarts", {"restarts": 0}),
        ("threads", {"threads": 0}),
        ("threads", {"threads": -2}),
        ("max_iter", {"max_iter": 0}),
        ("max_iter", {"max_iter": -1}),
        ("tol", {"tol": 0.0}),
        ("tol", {"tol": -1e-4}),
    ])
    def test_bad_values_name_the_field(self, field, kwargs):
        with pytest.raises(ValueError, match=f"SemConfig.{field} "):
            SemConfig(**kwargs)


_BLAS_HASH_SCRIPT = textwrap.dedent("""
    import hashlib
    import numpy as np
    from lasir import SemConfig, SimConfig, fit_sem, simulate_cube, validate_projection
    dataset, truth, lattice, basis = simulate_cube(
        SimConfig(dims=(10, 10, 10), n=200, n_groups=2, sigma=1.0, seed=2))
    fit = fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=21))
    val = validate_projection(dataset, basis, fit, "within", n_splits=2, seed=1)
    digest = hashlib.sha256()
    for part in (fit.params.theta_alpha, fit.params.lam, fit.params.w,
                 fit.responsibilities, fit.labels, fit.q_trace, val.mse):
        digest.update(np.ascontiguousarray(part).tobytes())
    print(digest.hexdigest())
""")


def test_fit_and_validation_bit_identical_across_blas_pool_sizes():
    # at 10^3 and n=200 a bare projection already differs between pool sizes
    src = os.path.dirname(os.path.dirname(lasir.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _BLAS_HASH_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


class TestFitSem:
    def test_single_group_fixed_point(self):
        cfg = SimConfig(dims=(5, 5, 5), n=50, n_groups=1, sigma=1.0, seed=1, n_sites=2)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
        assert fit.converged
        assert np.all(fit.labels == 1)
        assert np.all(fit.responsibilities == 1.0)
        assert fit.q_trace.size == 1

    def test_recovers_well_separated_groups(self):
        cfg = SimConfig(dims=(5, 5, 5), n=200, n_groups=3, sigma=1.0, seed=0)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit = fit_sem(dataset, basis, 3, SemConfig(restarts=5, seed=10))
        assert nmi(fit.labels, truth.labels) >= 0.9

    def test_bit_identical_reruns_and_thread_invariance(self):
        cfg = SimConfig(dims=(5, 5, 5), n=120, n_groups=2, sigma=1.0, seed=2)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fits = [fit_sem(dataset, basis, 2, SemConfig(restarts=3, seed=21, threads=t))
                for t in (1, 1, 3)]
        for other in fits[1:]:
            assert np.array_equal(fits[0].labels, other.labels)
            assert np.array_equal(fits[0].q_trace, other.q_trace)
            assert np.array_equal(fits[0].params.theta_alpha, other.params.theta_alpha)
            assert np.array_equal(fits[0].responsibilities, other.responsibilities)

    def test_label_permutation_equivariance(self):
        cfg = SimConfig(dims=(5, 5, 5), n=120, n_groups=3, sigma=1.0, seed=4)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        init = np.random.default_rng(99).integers(1, 4, size=dataset.n)
        perm = np.array([2, 1, 3])  # swap groups 1 and 2, reference group fixed
        fa = fit_sem(dataset, basis, 3, SemConfig(restarts=1, seed=13, init_labels=init))
        fb = fit_sem(dataset, basis, 3,
                     SemConfig(restarts=1, seed=13, init_labels=perm[init - 1]))
        assert np.array_equal(perm[fa.labels - 1], fb.labels)
        assert nmi(fa.labels, truth.labels) == nmi(fb.labels, truth.labels)
        assert np.allclose(fa.params.theta_alpha[0], fb.params.theta_alpha[1], atol=1e-8)

    @pytest.mark.parametrize("init, named", [
        (np.ones(119, dtype=int), r"shape \(120,\), got \(119,\)"),
        (np.ones((120, 1), dtype=int), r"shape \(120,\), got \(120, 1\)"),
        (np.full(120, 3), "integers in 1..2"),
        (np.zeros(120, dtype=int), "integers in 1..2"),
        (np.full(120, 1.5), "integers in 1..2"),
        (np.full(120, "1"), "integers in 1..2"),
    ])
    def test_init_labels_checked_before_any_replicate(self, init, named, monkeypatch):
        dataset, truth, lattice, basis = simulate_cube(
            SimConfig(dims=(5, 5, 5), n=120, n_groups=2, sigma=1.0, seed=4))

        def unreachable(*args):
            raise AssertionError("a replicate started")

        monkeypatch.setattr(lasir.sem, "_run_stack", unreachable)
        with pytest.raises(ValueError, match="SemConfig.init_labels must .*" + named):
            fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=1, init_labels=init))

    def test_no_viable_fit(self):
        rng = np.random.default_rng(5)
        dataset = _plain_dataset(5, 3, rng)
        with pytest.raises(RuntimeError, match="no viable fit"):
            basis = _identity_basis(3)
            fit_sem(dataset, basis, 3, SemConfig(restarts=2, seed=0))

    def test_max_iter_below_the_convergence_window(self):
        dataset, truth, lattice, basis = simulate_cube(
            SimConfig(dims=(5, 5, 5), n=80, n_groups=2, sigma=1.0, seed=6, n_sites=4))
        fit = fit_sem(dataset, basis, 2, SemConfig(max_iter=3, restarts=2, seed=3))
        assert fit.iterations == fit.q_trace.size <= 3

    def test_lambda_floor_respected(self):
        cfg = SimConfig(dims=(5, 5, 5), n=80, n_groups=2, sigma=1.0, seed=6, n_sites=4)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit = fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=3))
        assert np.all(fit.params.lam >= LAMBDA_FLOOR)
        assert np.allclose(fit.responsibilities.sum(axis=1), 1.0, atol=1e-12)


seeds = st.integers(0, 2**32 - 1)


def _grouped_problem(seed, n_groups, p, q, n_sites, L, extra):
    """Random outcomes, design and labels with every group big enough for
    stage 2 (p + 2 + extra members)."""
    rng = np.random.default_rng(seed)
    size = p + 2 + extra
    n = n_groups * size + n_sites
    dataset = _plain_dataset(n, L, rng, n_sites=n_sites, q=q, p=p)
    site_idx = rng.permutation(np.arange(n) % n_sites)  # no empty site column
    dataset.sites[:] = np.eye(n_sites)[site_idx]
    labels = rng.permutation(np.concatenate([np.repeat(np.arange(1, n_groups + 1), size),
                                             rng.integers(1, n_groups + 1, size=n_sites)]))
    ytilde = rng.standard_normal((n, L)) * rng.uniform(0.1, 10.0)
    return ytilde, dataset, labels


shapes = dict(seed=seeds, n_groups=st.integers(1, 4), p=st.integers(0, 2), q=st.integers(0, 2),
              n_sites=st.integers(1, 3), L=st.integers(1, 8), extra=st.integers(0, 6))


class TestPreparedProblemKernels:
    @given(**shapes)
    def test_stage2_matches_per_group_lstsq(self, seed, n_groups, p, q, n_sites, L, extra):
        ytilde, dataset, labels = _grouped_problem(seed, n_groups, p, q, n_sites, L, extra)
        problem = prepare(ytilde, dataset)
        theta, rss = stage2(problem, labels, n_groups)
        X, resid = dataset.exposures, problem.resid.copy()
        for k in range(1, n_groups + 1):
            rows = labels == k
            coef = np.linalg.lstsq(X[rows], problem.resid[rows], rcond=None)[0]
            # normal equations lose up to cond(X_k)^2 digits against lstsq
            tol = 1e-13 * np.linalg.cond(X[rows]) ** 2 * (1.0 + np.abs(coef).max())
            assert np.abs(theta[k - 1] - coef).max() <= tol
            resid[rows] -= X[rows] @ coef
        assert np.allclose(rss, (resid ** 2).sum(axis=0), rtol=1e-9, atol=0.0)

    @given(seed=seeds, n_groups=st.integers(1, 4), p=st.integers(0, 2), L=st.integers(1, 8),
           extra=st.integers(0, 6), noise=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]))
    def test_stage2_rss_from_sums_within_its_cancellation_bound(self, seed, n_groups, p, L,
                                                                 extra, noise):
        # R = X theta_k + noise on each group's rows: noise 1e-4 gives
        # RSS / sum R^2 near 1e-8, noise 0 an exact fit whose RSS cancels to 0
        rng = np.random.default_rng(seed)
        size = p + 2 + extra
        n = n_groups * size
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
        labels = rng.permutation(np.repeat(np.arange(1, n_groups + 1), size))
        # the bound's constant grows with the conditioning of the group designs
        assume(max(np.linalg.cond(X[labels == k]) for k in range(1, n_groups + 1)) <= 10.0)
        means = np.einsum("ij,ijl->il", X, rng.standard_normal((n_groups, p + 1, L))[labels - 1])
        R = means + noise * rng.standard_normal((n, L))
        problem = Problem(ytilde=R, coef=np.zeros((0, L)), resid=R, exposures=X,
                          gating=np.ones((n, 1)))
        _, rss = stage2(problem, labels, n_groups)
        direct = np.zeros(L)
        for k in range(1, n_groups + 1):
            rows = labels == k
            coef = np.linalg.lstsq(X[rows], R[rows], rcond=None)[0]
            direct += ((R[rows] - X[rows] @ coef) ** 2).sum(axis=0)
        assert np.all(rss >= 0.0)
        eps = np.finfo(float).eps
        assert np.all(np.abs(rss - direct) <= 64 * eps * (R * R).sum(axis=0))

    @given(seed=seeds, n_groups=st.integers(1, 4), p=st.integers(0, 2), L=st.integers(1, 8),
           lam_scale=st.sampled_from([LAMBDA_FLOOR, 1e-3, 1.0, 1e3]))
    @example(seed=405470, n_groups=1, p=2, L=1, lam_scale=1e-10)  # X theta_k cancels
    def test_expanded_log_density_matches_direct_sum(self, seed, n_groups, p, L, lam_scale):
        rng = np.random.default_rng(seed)
        n = 12
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
        theta = rng.standard_normal((n_groups, p + 1, L))
        # residuals close to group 1's mean: the expansion's terms cancel most there
        resid = X @ theta[0] + np.sqrt(lam_scale) * rng.standard_normal((n, L))
        lam = lam_scale * rng.uniform(1.0, 2.0, size=L)
        params = ModelParams(theta_alpha=theta, theta_eta=np.zeros((0, L)),
                             theta_gamma=np.zeros((0, L)), lam=lam, w=np.zeros((n_groups, 1)))
        got = _log_density(resid, resid * resid, X, params)
        const = -0.5 * np.sum(np.log(2.0 * np.pi * lam))
        for k in range(n_groups):
            direct = const - 0.5 * (((resid - X @ theta[k]) ** 2) / lam).sum(axis=1)
            # the rounding of the expanded terms, sum (R^2 + (|X| |theta_k|)^2) / lam:
            # they round the products x_ij theta_kj, however much X theta_k cancels
            scale = ((resid ** 2 + (np.abs(X) @ np.abs(theta[k])) ** 2) / lam).sum(axis=1)
            scale += abs(const)
            assert np.all(np.abs(got[:, k] - direct) <= 1e-13 * scale)

    @given(**shapes)
    def test_e_step_on_problem_matches_projected_outcomes(self, seed, n_groups, p, q, n_sites,
                                                          L, extra):
        ytilde, dataset, labels = _grouped_problem(seed, n_groups, p, q, n_sites, L, extra)
        problem = prepare(ytilde, dataset)
        params = m_step(problem, None, labels, n_groups)
        assert np.allclose(e_step(problem, None, params), e_step(ytilde, dataset, params),
                           rtol=0.0, atol=1e-10)

    @given(**shapes)
    def test_q_from_rss_matches_direct_residuals(self, seed, n_groups, p, q, n_sites, L, extra):
        ytilde, dataset, labels = _grouped_problem(seed, n_groups, p, q, n_sites, L, extra)
        problem = prepare(ytilde, dataset)
        params = m_step(problem, None, labels, n_groups)
        mean = dataset.controls @ params.theta_eta + dataset.sites @ params.theta_gamma
        mean += np.einsum("ij,ijl->il", dataset.exposures, params.theta_alpha[labels - 1])
        n = ytilde.shape[0]
        gauss = -0.5 * (n * np.sum(np.log(2.0 * np.pi * params.lam))
                        + ((ytilde - mean) ** 2 / params.lam).sum())
        probs = gating_probs(params.w, augment(dataset.controls))
        gate = np.log(probs[np.arange(n), labels - 1]).sum()
        direct = gauss + gate
        assert q_value(problem, None, labels, params) == pytest.approx(direct, rel=1e-10)
        assert q_value(ytilde, dataset, labels, params) == pytest.approx(direct, rel=1e-10)

    @given(seed=seeds, n_classes=st.integers(2, 4), q=st.integers(0, 2), n=st.integers(20, 300))
    @example(seed=3, n_classes=3, q=2, n=20)  # steps onto the reference class
    @example(seed=0, n_classes=4, q=2, n=21)
    def test_warm_and_cold_gating_fits_reach_the_same_optimum(self, seed, n_classes, q, n):
        rng = np.random.default_rng(seed)
        features = augment(rng.standard_normal((n, q)) * rng.uniform(0.2, 3.0))
        w_true = np.vstack([rng.standard_normal((n_classes - 1, q + 1)), np.zeros(q + 1)])
        cdf = gating_probs(w_true, features).cumsum(axis=1)
        labels = np.minimum(1 + (rng.random(n)[:, None] > cdf).sum(axis=1), n_classes)
        onehot = np.eye(n_classes)[labels - 1]
        # warm start from the optimum of a perturbed labelling, as in the EM loop
        moved = labels.copy()
        flip = rng.random(n) < 0.2
        moved[flip] = rng.integers(1, n_classes + 1, size=int(flip.sum()))
        init = mnlogit_fit(features, moved, n_classes).w
        fits = [_mnlogit_newton(features, onehot, n_classes),
                _mnlogit_newton(features, onehot, n_classes, init=init[:-1])]
        objectives = []
        for W, trace, _ in fits:
            w = np.vstack([W, np.zeros(q + 1)])
            probs = gating_probs(w, features)
            grad = (onehot - probs)[:, :-1].T @ features - MNLOGIT_RIDGE * W
            assert np.abs(grad).max() <= 1e-8
            assert all(b >= a for a, b in zip(trace, trace[1:]))
            objectives.append(np.log(probs[np.arange(n), labels - 1]).sum()
                              - 0.5 * MNLOGIT_RIDGE * np.sum(W ** 2))
            # the trace accumulates the accepted steps' gains from the start value
            assert trace[-1] == pytest.approx(objectives[-1], rel=1e-9, abs=1e-9)
        assert objectives[1] == pytest.approx(objectives[0], rel=1e-12, abs=1e-12)
        assert np.array_equal(mnlogit_fit(features, labels, n_classes, init=init).w,
                              np.vstack([fits[1][0], np.zeros(q + 1)]))


def _holdout_split(seed, p, q, n_sites, L, n_train, n_test):
    """Random data with disjoint training and test rows (the rest unused)."""
    rng = np.random.default_rng(seed)
    n = n_train + n_test + 3
    dataset = _plain_dataset(n, L, rng, n_sites=n_sites, q=q, p=p)
    ytilde = rng.standard_normal((n, L)) * rng.uniform(0.1, 10.0)
    order = rng.permutation(n)
    train = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[order[:n_train]] = True
    test[order[n_train:n_train + n_test]] = True
    return ytilde, dataset, train, test


def _two_stage_reference(ytilde, dataset, train, test):
    """The no-subgroup fit on the rows `train`, solved directly: `prepare` and
    `stage2` on those rows, site columns absent from them dropped."""
    kept = dataset.sites[train].any(axis=0)
    subset = Dataset(images=dataset.images[train], exposures=dataset.exposures[train],
                     controls=dataset.controls[train], sites=dataset.sites[train][:, kept])
    problem = prepare(ytilde[train], subset)
    theta, _ = stage2(problem, np.ones(problem.n, dtype=int), 1)
    design = np.hstack([dataset.sites[test][:, kept], dataset.controls[test]])
    return design @ problem.coef + dataset.exposures[test] @ theta[0]


def _predict_by_downdate(ytilde, dataset, train, test):
    """`predict_from_sums` on the totals over all rows minus the sums over
    the rows outside `train`."""
    z = np.hstack([dataset.sites, dataset.controls, dataset.exposures])
    out = ~train
    gram = z.T @ z - z[out].T @ z[out]
    cross = z.T @ ytilde - z[out].T @ ytilde[out]
    return predict_from_sums(gram, cross, z[train], z[test], dataset.sites.shape[1],
                             dataset.exposures.shape[1])


split_shapes = dict(seed=seeds, p=st.integers(0, 2), q=st.integers(0, 2),
                    n_sites=st.integers(1, 4), L=st.integers(1, 8), extra=st.integers(0, 30),
                    n_test=st.integers(1, 6))


class TestPredictFromSums:
    @given(drop_site=st.booleans(), **split_shapes)
    @example(drop_site=True, seed=29099, p=0, q=0, n_sites=2, L=2, extra=0, n_test=1)
    def test_matches_two_stage_fit(self, drop_site, seed, p, q, n_sites, L, extra, n_test):
        ytilde, dataset, train, test = _holdout_split(seed, p, q, n_sites, L,
                                                      n_sites + q + p + 2 + extra, n_test)
        if drop_site and n_sites > 1:  # no training member at site 1
            train &= dataset.sites[:, 0] == 0
        kept = dataset.sites[train].any(axis=0)
        stage1 = np.hstack([dataset.sites[train][:, kept], dataset.controls[train]])
        X = dataset.exposures[train]
        try:
            ref = _two_stage_reference(ytilde, dataset, train, test)
        except (ValueError, DegenerateGroupError) as exc:  # too few rows left at other sites
            with pytest.raises(type(exc)):
                _predict_by_downdate(ytilde, dataset, train, test)
            return
        got = _predict_by_downdate(ytilde, dataset, train, test)
        # the sums square the designs' condition numbers
        cond = max(np.linalg.cond(stage1), np.linalg.cond(X))
        tol = 1e-10 * cond ** 2 * (1.0 + np.abs(ref).max())
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= tol

    @given(**split_shapes)
    def test_rank_deficient_stage1_raises_value_error(self, seed, p, q, n_sites, L, extra,
                                                      n_test):
        ytilde, dataset, train, test = _holdout_split(seed, p, q + 1, n_sites, L,
                                                      n_sites + q + p + 3 + extra, n_test)
        # a control constant on the training rows duplicates the site indicators' sum
        dataset.controls[train, 0] = 2.5
        for predict in (_two_stage_reference, _predict_by_downdate):
            with pytest.raises(ValueError, match="rank-deficient"):
                predict(ytilde, dataset, train, test)

    @given(collinear=st.booleans(), **split_shapes)
    def test_degenerate_exposures_raise(self, collinear, seed, p, q, n_sites, L, extra, n_test):
        if collinear:  # an exposure constant on the training rows, as the intercept is
            ytilde, dataset, train, test = _holdout_split(seed, p + 1, q, n_sites, L,
                                                          n_sites + q + p + 3 + extra, n_test)
            dataset.exposures[train, 1] = -0.5
            match = "rank-deficient"
        else:  # fewer training rows than p + 2, but enough for stage 1
            ytilde, dataset, train, test = _holdout_split(seed, p + 1, 0, 1, L, p + 2, n_test)
            match = "members"
        for predict in (_two_stage_reference, _predict_by_downdate):
            with pytest.raises(DegenerateGroupError, match=match):
                predict(ytilde, dataset, train, test)


@pytest.mark.parametrize("kwargs, named", [
    ({"max_iter": 2.0}, "SemConfig.max_iter must be an integer, got 2.0"),
    ({"restarts": 1.5}, "SemConfig.restarts must be an integer, got 1.5"),
    ({"threads": "2"}, "SemConfig.threads must be an integer, got '2'"),
    ({"seed": 1.0}, "SemConfig.seed must be an integer, got 1.0"),
    ({"seed": -1}, "SemConfig.seed must be >= 0, got -1"),
])
def test_sem_config_counts_must_be_integers(kwargs, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        SemConfig(**kwargs)


@pytest.mark.parametrize("n_groups", [2.0, 1.5, "2"])
def test_group_count_must_be_an_integer_checked_before_projecting(n_groups, monkeypatch):
    dataset, _, _, basis = simulate_cube(SimConfig(dims=(5, 5, 5), n=50, n_groups=2, seed=0,
                                                     n_sites=3))
    problem = prepare(project(dataset.images, basis), dataset)

    def unreachable(*args):
        raise AssertionError("projected before checking the group count")

    monkeypatch.setattr(sem_module, "projected", unreachable)
    named = re.escape(f"n_groups must be an integer, got {n_groups!r}")
    with pytest.raises(ValueError, match=named):
        fit_sem(dataset, basis, n_groups, SemConfig())
    with pytest.raises(ValueError, match=named):
        fit_problem(problem, n_groups, SemConfig())


def test_numpy_integer_counts_are_accepted():
    dataset, _, _, basis = simulate_cube(SimConfig(dims=(5, 5, 5), n=60, n_groups=2, seed=1,
                                                     n_sites=3))
    config = SemConfig(max_iter=np.int64(3), restarts=np.int32(2), threads=np.uint8(1),
                       seed=np.uint32(7))
    fit = fit_sem(dataset, basis, np.int64(2), config)
    plain = fit_sem(dataset, basis, 2, SemConfig(max_iter=3, restarts=2, seed=7))
    assert fit.n_groups == 2
    assert np.array_equal(fit.labels, plain.labels)


def _same(x, y) -> bool:
    """Bit-for-bit equality of two values: arrays and floats by dtype, shape
    and bytes."""
    if any(isinstance(v, (np.ndarray, np.generic, float)) for v in (x, y)):
        x, y = np.asarray(x), np.asarray(y)
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    return type(x) is type(y) and x == y


def _assert_same_params(a: ModelParams, b: ModelParams):
    for f in dataclasses.fields(ModelParams):
        assert _same(getattr(a, f.name), getattr(b, f.name)), f.name


def _assert_same_fit(a, b):
    for f in dataclasses.fields(lasir.FitResult):
        if f.name == "params":
            _assert_same_params(a.params, b.params)
        else:
            assert _same(getattr(a, f.name), getattr(b, f.name)), f.name


def _gating_start(rng, n_groups, m, saturate):
    """Random gating weights (K, m), last row zero; with `saturate`, class 1's
    intercept is 30, so that nearly every probability is 0 or 1: the Hessian
    is then about the ridge and a full Newton step overshoots."""
    w = np.vstack([0.5 * rng.standard_normal((n_groups - 1, m)), np.zeros(m)])
    if saturate and n_groups > 1:
        w[0, 0] += 30.0
    return w


def _objective(features, labels, w):
    n = len(labels)
    return (log_gating(w, features)[np.arange(n), labels - 1].sum()
            - 0.5 * MNLOGIT_RIDGE * np.sum(w ** 2))


def _full_newton_step_falls(features, labels, w):
    """Whether the undamped Newton step from `w` lowers the penalized
    objective, computed without the library's Newton code."""
    K, m = w.shape
    free = K - 1
    probs = gating_probs(w, features)
    onehot = np.eye(K)[labels - 1]
    grad = (onehot - probs)[:, :free].T @ features - MNLOGIT_RIDGE * w[:free]
    hess = MNLOGIT_RIDGE * np.eye(free * m)
    for k in range(free):
        for c in range(free):
            weight = probs[:, k] * (float(k == c) - probs[:, c])
            hess[k * m:(k + 1) * m, c * m:(c + 1) * m] += (features * weight[:, None]).T @ features
    step = np.linalg.solve(hess, grad.ravel()).reshape(free, m)
    moved = w.copy()
    moved[:free] += step
    return _objective(features, labels, moved) < _objective(features, labels, w)


class TestStackedReplicates:
    """A stack of replicates gives each replicate the bits it gets alone."""

    @given(stack=st.integers(1, 4), **shapes)
    def test_stacked_steps_equal_each_row_alone(self, stack, seed, n_groups, p, q, n_sites, L,
                                                extra):
        ytilde, dataset, labels = _grouped_problem(seed, n_groups, p, q, n_sites, L, extra)
        problem = prepare(ytilde, dataset)
        rng = np.random.default_rng(seed)
        labels = np.stack([rng.permutation(labels) for _ in range(stack)])
        features = problem.gating
        m = features.shape[1]
        # cold, warm, and from saturated weights, where every fit halves its steps
        warm = np.stack([_gating_start(rng, n_groups, m, False) for _ in range(stack)])
        far = np.stack([_gating_start(rng, n_groups, m, True) for _ in range(stack)])
        if n_groups > 1:
            assert all(_full_newton_step_falls(features, row, w) for row, w in zip(labels, far))
        for init in (None, warm, far):
            together = mnlogit_fit(features, labels, n_groups, init=init).w
            for a, row in enumerate(labels):
                alone = mnlogit_fit(features, row, n_groups,
                                    init=None if init is None else init[a]).w
                assert _same(together[a], alone)
            stacked = m_step(problem, None, labels, n_groups, w_init=init)
            rows = [m_step(problem, None, row, n_groups, w_init=None if init is None else init[a])
                    for a, row in enumerate(labels)]
            q_values = q_value(problem, None, labels, stacked)
            q_direct = q_value(ytilde, dataset, labels, stacked)
            resp = e_step(problem, None, stacked)
            resp_direct = e_step(ytilde, dataset, stacked)
            for a, alone in enumerate(rows):
                _assert_same_params(sem_module._replicate(stacked, a), alone)
                assert _same(q_values[a], q_value(problem, None, labels[a], alone))
                assert _same(q_direct[a], q_value(ytilde, dataset, labels[a], alone))
                assert _same(resp[a], e_step(problem, None, alone))
                assert _same(resp_direct[a], e_step(ytilde, dataset, alone))
        drawn = s_step(resp, [np.random.default_rng(seed + a) for a in range(stack)])
        for a in range(stack):
            assert _same(drawn[a], s_step(resp[a], np.random.default_rng(seed + a)))

    def test_stacked_m_step_names_the_first_degenerate_row(self):
        ytilde, dataset, labels = _grouped_problem(3, 3, 1, 1, 2, 4, 2)
        problem = prepare(ytilde, dataset)
        small = labels.copy()
        small[small == 2] = 1
        small[np.flatnonzero(labels == 2)[0]] = 2  # group 2 keeps one member
        stack = np.stack([labels, np.ones_like(labels), labels, small])
        # rows 1 and 3 fail; without row 1, row 3 (now row 2) is named
        for rows, named in (([0, 1, 2, 3], 1), ([0, 2, 3], 2)):
            with pytest.raises(DegenerateGroupError) as caught:
                m_step(problem, None, stack[rows], 3)
            assert caught.value.row == named
            with pytest.raises(DegenerateGroupError) as alone:
                m_step(problem, None, stack[rows[named]], 3)
            assert alone.value.row == 0
            assert str(caught.value) == str(alone.value)

    def test_each_raising_m_step_redraws_or_drops_one_replicate(self, monkeypatch, caplog):
        # n=24 at K=4 leaves groups degenerate often, in several replicates
        # of one m_step call at a time; each raise must account for one
        dataset, _, _, basis = simulate_cube(SimConfig(dims=(5, 5, 5), n=24, n_groups=2,
                                                       n_sites=2, seed=3))
        calls, m_step_alone = [], sem_module.m_step

        def recorded(problem, dataset, labels, n_groups, w_init=None):
            calls.append([labels.copy(), None])
            try:
                return m_step_alone(problem, dataset, labels, n_groups, w_init=w_init)
            except DegenerateGroupError as exc:
                calls[-1][1] = exc.row
                raise

        monkeypatch.setattr(sem_module, "m_step", recorded)
        with caplog.at_level(logging.WARNING, logger="lasir.sem"):
            fit_sem(dataset, basis, 4, SemConfig(restarts=6, seed=0, threads=1))
        dropped = sum("replicate failed" in r.getMessage() for r in caplog.records)
        redrawn = 0
        for (before, row), (after, _) in zip(calls, calls[1:]):
            if row is None:
                continue
            if len(after) == len(before):  # saturated responsibilities may redraw the same labels
                assert set(np.flatnonzero((after != before).any(axis=1))) <= {row}
                redrawn += 1
            else:
                assert np.array_equal(after, np.delete(before, row, axis=0))
        raised = sum(row is not None for _, row in calls)
        assert redrawn > dropped > 0
        assert raised == redrawn + dropped

    def test_a_replicate_that_no_redraw_can_change_is_dropped_at_once(self, monkeypatch,
                                                                       caplog):
        # after iteration 1, replicate 0's responsibilities put everyone in
        # group 1: every S-step redraw gives the same degenerate labels
        dataset, _, _, basis = simulate_cube(SimConfig(dims=(5, 5, 5), n=60, n_groups=2,
                                                       n_sites=2, seed=3))
        e_step_alone, m_step_alone = sem_module.e_step, sem_module.m_step
        raised, stacks = [], []

        def one_hot(problem, dataset, params):
            resp = e_step_alone(problem, dataset, params)
            if not stacks:
                resp[0] = 0.0
                resp[0, :, 0] = 1.0
            stacks.append(resp.shape[0])
            return resp

        def recorded(problem, dataset, labels, n_groups, w_init=None):
            try:
                return m_step_alone(problem, dataset, labels, n_groups, w_init=w_init)
            except DegenerateGroupError as exc:
                raised.append((labels.shape[0], exc.row))
                raise

        monkeypatch.setattr(sem_module, "e_step", one_hot)
        monkeypatch.setattr(sem_module, "m_step", recorded)
        with caplog.at_level(logging.WARNING, logger="lasir.sem"):
            fit = fit_sem(dataset, basis, 2, SemConfig(restarts=3, seed=0, threads=1))
        assert raised == [(3, 0)]
        assert stacks[:2] == [3, 2]
        assert sum("replicate failed" in r.getMessage() for r in caplog.records) == 1
        assert fit.replicate != 0

    @pytest.mark.parametrize("spread, accepted", [(1e-5, True), (0.0, False)])
    def test_ill_conditioned_groups_take_the_svd_rule(self, spread, accepted):
        # group 2's exposure is nearly (or exactly) constant: its Gram fails
        # the eigenvalue screen, so check_group's SVD decides, as it did alone
        ytilde, dataset, labels = _grouped_problem(5, 3, 1, 1, 2, 4, 3)
        rows = labels == 2
        dataset.exposures[rows, 1] = 0.5 + spread * np.arange(rows.sum())
        problem = prepare(ytilde, dataset)
        cond = np.linalg.cond(dataset.exposures[rows])
        assert cond > 1e4  # the Gram's eigenvalue ratio is below CLEAR_CONDITION
        stack = np.stack([labels, labels])
        if accepted:
            params = m_step(problem, None, stack, 3)
            _assert_same_params(sem_module._replicate(params, 1),
                                m_step(problem, None, labels, 3))
        else:
            with pytest.raises(DegenerateGroupError, match="degenerate group 2: rank-deficient"):
                m_step(problem, None, stack, 3)
            with pytest.raises(DegenerateGroupError, match="degenerate group 2: rank-deficient"):
                stage2(problem, labels, 3)

    @pytest.mark.parametrize("sim, n_groups, max_iter, failures", [
        (SimConfig(dims=(5, 5, 5), n=120, n_groups=3, sigma=1.0, seed=8, n_sites=3), 3, 200, 0),
        # tiny n, large K: three replicates fail after their redraws, two run on
        (SimConfig(dims=(4, 4, 4), n=24, n_groups=2, seed=1, n_sites=2), 6, 30, 3),
    ])
    def test_uneven_stacks_give_the_same_fit(self, sim, n_groups, max_iter, failures, caplog):
        # five restarts on 1, 2, 3 and 5 threads: stacks of 5; 3+2; 2+2+1; five of 1
        dataset, _, _, basis = simulate_cube(sim)
        fits, failed = [], []
        for threads in (1, 2, 3, 5):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="lasir.sem"):
                fits.append(fit_sem(dataset, basis, n_groups,
                                    SemConfig(restarts=5, seed=1, max_iter=max_iter,
                                              threads=threads)))
            failed.append(sum("replicate failed" in r.getMessage() for r in caplog.records))
        assert failed == [failures] * 4
        for other in fits[1:]:
            _assert_same_fit(fits[0], other)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_lone_stack_runs_on_the_calling_thread(self, threads, monkeypatch):
        # one stack runs inline, with no pool; two run on two other threads
        dataset, _, _, basis = simulate_cube(SimConfig(dims=(4, 4, 4), n=40, n_groups=2,
                                                       n_sites=2, seed=5))
        seen, run_stack = [], sem_module._run_stack

        def recorded(problem, n_groups, config, seeds):
            on_main = threading.current_thread() is threading.main_thread()
            seen.append((on_main, tuple(seed.spawn_key[-1] for seed in seeds)))
            return run_stack(problem, n_groups, config, seeds)

        monkeypatch.setattr(sem_module, "_run_stack", recorded)
        fit_sem(dataset, basis, 2, SemConfig(restarts=3, seed=2, threads=threads))
        if threads == 1:
            assert seen == [(True, (0, 1, 2))]
        else:
            assert sorted(seen) == [(False, (0, 2)), (False, (1,))]
