import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import lasir
from lasir import (Dataset, KernelParams, SemConfig, SimConfig, e_step, fit_sem,
                   m_step, nmi, q_value, s_step, simulate_cube, svcm_fit)
from lasir.basis import BasisSystem
from lasir.projection import project
from lasir.sem import ModelParams


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
        ("window", {"window": 0}),
        ("window", {"window": 6, "max_iter": 5}),
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

    def test_no_viable_fit(self):
        rng = np.random.default_rng(5)
        dataset = _plain_dataset(5, 3, rng)
        with pytest.raises(RuntimeError, match="no viable fit"):
            basis = _identity_basis(3)
            fit_sem(dataset, basis, 3, SemConfig(restarts=2, seed=0))

    def test_lambda_floor_respected(self):
        cfg = SimConfig(dims=(5, 5, 5), n=80, n_groups=2, sigma=1.0, seed=6, n_sites=4)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit = fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=3, lambda_floor=1e-8))
        assert np.all(fit.params.lam >= 1e-8)
        assert np.allclose(fit.responsibilities.sum(axis=1), 1.0, atol=1e-12)
