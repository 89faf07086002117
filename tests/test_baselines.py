import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lasir import (SemConfig, SimConfig, _blas, fit_sem, kmeans, kmlr_fit, nmi, project,
                   simulate_cube, svcm_fit)
from lasir import baselines
from lasir.baselines import _kmeanspp_seed, _lloyd
from lasir.sem import fit_at_labels, prepare


def _lloyd_broadcast(points, centroids, max_iter):
    """Lloyd's loop on the (n, K, L) broadcast form of the exact squared
    distances, as it took them before the one-product screen: the (labels,
    inertia) of every step."""
    n, n_clusters = points.shape[0], centroids.shape[0]
    labels = np.full(n, -1)
    steps = []
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        nearest = d2[np.arange(n), new_labels]
        for k in range(n_clusters):
            if not np.any(new_labels == k):
                shared = np.bincount(new_labels, minlength=n_clusters)[new_labels] > 1
                far = int(np.argmax(np.where(shared, nearest, -np.inf)))
                centroids[k] = points[far]
                new_labels[far] = k
                nearest = ((points - centroids[new_labels]) ** 2).sum(axis=1)
        steps.append((new_labels.copy(), float(nearest.sum())))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(n_clusters):
            centroids[k] = points[labels == k].mean(axis=0)
    return steps


def _truncations(points, start):
    """`_lloyd` from `start` stopped after t = 1, 2, ... steps, up to one step
    past convergence: its labels and inertia must be the broadcast loop's at
    step t (at the last step once converged). Returns the inertias."""
    steps = _lloyd_broadcast(points, start.copy(), 100)
    inertias = []
    for t in range(1, len(steps) + 2):
        labels, inertia = _lloyd(points, start.copy(), t)
        ref_labels, ref_inertia = steps[min(t, len(steps)) - 1]
        assert np.array_equal(labels, ref_labels)
        assert inertia == ref_inertia
        inertias.append(inertia)
    return inertias


class TestKmeans:
    def test_one_cluster_per_point(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((6, 3)) * 10.0
        labels = kmeans(points, 6, seed=1)
        assert sorted(labels.tolist()) == [1, 2, 3, 4, 5, 6]

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 2)) + [10.0, 0.0]
        b = rng.standard_normal((40, 2)) - [10.0, 0.0]
        points = np.vstack([a, b])
        truth = np.repeat([1, 2], 40)
        labels = kmeans(points, 2, seed=0)
        assert nmi(labels, truth) == 1.0

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((100, 4))
        centroids = _kmeanspp_seed(points, 5, np.random.default_rng(3))
        inertias = _truncations(points, centroids)
        assert len(inertias) > 3
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))

    @pytest.mark.parametrize("seed, n, L, n_clusters", [
        (5, 300, 455, 3), (6, 40, 3, 5), (7, 12, 2, 6), (8, 200, 20, 8)])
    def test_lloyd_equals_the_broadcast_distances(self, seed, n, L, n_clusters):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((n, L)) + rng.integers(0, 3, size=(n, 1))
        for start in (_kmeanspp_seed(points, n_clusters, rng),
                      np.repeat(points[:1], n_clusters, axis=0)):  # empty clusters re-seeded
            _truncations(points, start)

    @given(st.integers(1, 60), st.integers(1, 6), st.integers(1, 8),
           st.sampled_from([0.0, 1e4, -3e4]), st.sampled_from([1, 2, 3, 100]),
           st.integers(0, 2 ** 32 - 1))
    # a case that `_lloyd` misassigns when the screen's margin is 0
    @example(n=12, L=4, n_clusters=7, offset=-3e4, max_iter=2, seed=143809)
    def test_screened_lloyd_equals_the_broadcast_distances_on_ties(self, n, L, n_clusters,
                                                                   offset, max_iter, seed):
        # coordinates rounded to tenths, repeated, some far from the origin:
        # exact ties between centroids, and near ties below what the one-product
        # form resolves
        n_clusters = min(n_clusters, n)
        rng = np.random.default_rng(seed)
        distinct = np.round(rng.standard_normal((max(1, n // 2), L)), 1) + offset
        points = distinct[rng.integers(0, distinct.shape[0], n)]
        start = (_kmeanspp_seed(points, n_clusters, rng) if seed % 2 else
                 points[rng.integers(0, n, n_clusters)])
        labels, inertia = _lloyd(points, start.copy(), max_iter)
        ref_labels, ref_inertia = _lloyd_broadcast(points, start.copy(), max_iter)[-1]
        assert np.array_equal(labels, ref_labels)
        assert inertia == ref_inertia

    def test_non_finite_points_name_the_first(self):
        points = np.zeros((6, 3))
        points[4, 1], points[2, 0] = np.inf, np.nan
        with pytest.raises(ValueError, match="^point 2 holds a non-finite value$"):
            kmeans(points, 2, seed=0)
        points[2, 0] = 0.0
        with pytest.raises(ValueError, match="^point 4 holds a non-finite value$"):
            kmeans(points, 2, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((60, 3))
        assert np.array_equal(kmeans(points, 4, seed=9), kmeans(points, 4, seed=9))

    @pytest.mark.parametrize("n_clusters", [4, 5, 6])
    def test_a_re_seed_never_empties_another_cluster(self, n_clusters):
        # six points on two places: every seeding leaves clusters empty, and
        # each must be re-seeded from a cluster that keeps a member
        labels = kmeans(np.repeat(np.eye(2), 3, axis=0), n_clusters, seed=0)
        assert sorted(set(labels.tolist())) == list(range(1, n_clusters + 1))

    def test_too_many_clusters(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    @pytest.mark.parametrize("n_clusters", [0, -1])
    def test_fewer_than_one_cluster(self, n_clusters):
        with pytest.raises(ValueError, match=f"n_clusters must be >= 1, got {n_clusters}"):
            kmeans(np.zeros((3, 2)), n_clusters, seed=0)


class TestKmlr:
    def test_single_group_reduces_to_svcm(self):
        cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=0, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit = kmlr_fit(dataset, basis, 1, SemConfig(seed=1))
        direct = svcm_fit(dataset, basis)
        assert np.array_equal(fit.params.theta_alpha, direct.theta_alpha)
        assert np.array_equal(fit.params.lam, direct.lam)

    def test_deterministic(self):
        cfg = SimConfig(dims=(5, 5, 5), n=90, n_groups=2, sigma=1.0, seed=2, n_sites=4)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        f1 = kmlr_fit(dataset, basis, 2, SemConfig(seed=5))
        f2 = kmlr_fit(dataset, basis, 2, SemConfig(seed=5))
        assert np.array_equal(f1.labels, f2.labels)
        assert np.array_equal(f1.params.theta_alpha, f2.params.theta_alpha)

    def test_hard_responsibilities(self):
        cfg = SimConfig(dims=(5, 5, 5), n=90, n_groups=2, sigma=1.0, seed=2, n_sites=4)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit = kmlr_fit(dataset, basis, 2, SemConfig(seed=5))
        assert set(np.unique(fit.responsibilities)) <= {0.0, 1.0}
        assert np.array_equal(fit.responsibilities.argmax(axis=1) + 1, fit.labels)

    @pytest.mark.parametrize("seed, n_groups", [(0, 2), (1, 3), (2, 3), (3, 1)])
    def test_is_kmeans_labels_then_one_fit_at_labels(self, seed, n_groups):
        cfg = SimConfig(dims=(6, 6, 6), n=120, n_groups=max(n_groups, 2), sigma=1.0,
                        seed=seed, n_sites=4)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        config = SemConfig(seed=seed + 7)
        fit = kmlr_fit(dataset, basis, n_groups, config)
        with _blas.single_thread:
            problem = prepare(project(dataset.images, basis), dataset)
            labels = kmeans(problem.resid, n_groups, seed=config.seed * 100)
            expected = fit_at_labels(problem, labels, n_groups, config)
        assert fit.method == "kmlr"
        assert (fit.iterations, fit.converged, fit.seed) == (1, True, config.seed)
        assert np.array_equal(fit.labels, labels)
        assert np.array_equal(fit.q_trace, expected.q_trace)
        assert np.array_equal(fit.responsibilities, expected.responsibilities)
        for name in ("theta_alpha", "theta_eta", "theta_gamma", "lam", "w", "rss"):
            assert np.array_equal(getattr(fit.params, name), getattr(expected.params, name))

    def _collinear_first(self, monkeypatch, bad_seeds):
        """Data whose first 10 individuals share one exposure value, and a
        k-means that puts exactly them in group 2 on the seeds `bad_seeds`."""
        cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=4, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        dataset.exposures[:10, 1] = 0.5
        bad = np.ones(dataset.n, dtype=int)
        bad[:10] = 2
        good = np.arange(dataset.n) % 2 + 1
        seeds = []

        def fake_kmeans(points, n_clusters, seed=0):
            seeds.append(seed)
            return (bad if seed in bad_seeds else good).copy()

        monkeypatch.setattr(baselines, "kmeans", fake_kmeans)
        return dataset, basis, good, seeds

    def test_collinear_labelling_moves_to_the_next_seed(self, monkeypatch):
        # 10 >= p+2 members, so only the rank test rejects the first labelling
        dataset, basis, good, seeds = self._collinear_first(monkeypatch, {300})
        fit = kmlr_fit(dataset, basis, 2, SemConfig(seed=3))
        assert seeds == [300, 301]
        assert np.array_equal(fit.labels, good)

    def test_no_viable_labelling_names_the_group(self, monkeypatch):
        dataset, basis, _, seeds = self._collinear_first(monkeypatch, set(range(300, 310)))
        with pytest.raises(RuntimeError, match="no viable fit: degenerate group 2"):
            kmlr_fit(dataset, basis, 2, SemConfig(seed=3))
        assert seeds == list(range(300, 310))

    def test_misses_slope_only_structure(self):
        # groups that differ only in exposure slope: outcome clustering fails
        # where the likelihood-based fit does markedly better
        cfg = SimConfig(dims=(7, 7, 7), n=250, n_groups=3, sigma=1.0, seed=6,
                        n_sites=6, shared_intercept=True)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        km = kmlr_fit(dataset, basis, 3, SemConfig(seed=3))
        la = fit_sem(dataset, basis, 3, SemConfig(restarts=5, seed=3))
        assert nmi(km.labels, truth.labels) < 0.5
        assert nmi(la.labels, truth.labels) > nmi(km.labels, truth.labels) + 0.15


class TestSvcm:
    def test_equals_single_group_sem(self):
        cfg = SimConfig(dims=(5, 5, 5), n=70, n_groups=1, sigma=1.0, seed=3, n_sites=4)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        params = svcm_fit(dataset, basis)
        fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
        assert np.array_equal(params.theta_alpha, fit.params.theta_alpha)
        assert np.array_equal(params.theta_eta, fit.params.theta_eta)
        assert np.array_equal(params.theta_gamma, fit.params.theta_gamma)
        assert np.array_equal(params.lam, fit.params.lam)

    def test_noiseless_exact_recovery(self):
        # truth constructed inside the two-stage estimator's range: single
        # site, no controls, zero true intercept, exposures centered per site
        rng = np.random.default_rng(7)
        from lasir import Dataset
        from lasir.sem import m_step
        n, L = 24, 5
        x = np.tile([-1.5, 1.5], n // 2)
        exposures = np.column_stack([np.ones(n), x])
        theta_gamma = rng.standard_normal((1, L))
        slope = rng.standard_normal(L)
        ytilde = np.ones((n, 1)) @ theta_gamma + np.outer(x, slope)
        dataset = Dataset(images=np.zeros((n, L), dtype=np.float32),
                          exposures=exposures, controls=np.zeros((n, 0)),
                          sites=np.ones((n, 1)))
        params = m_step(ytilde, dataset, np.ones(n, dtype=int), 1)
        assert np.allclose(params.theta_gamma, theta_gamma, atol=1e-8)
        assert np.allclose(params.theta_alpha[0, 0], 0.0, atol=1e-8)
        assert np.allclose(params.theta_alpha[0, 1], slope, atol=1e-8)
        assert np.all(params.lam == 1e-10)


@pytest.mark.parametrize("n_clusters", [2.0, 1.5, "2"])
def test_cluster_count_must_be_an_integer(n_clusters):
    with pytest.raises(ValueError, match=f"n_clusters must be an integer, got {n_clusters!r}"):
        kmeans(np.zeros((3, 2)), n_clusters, seed=0)
