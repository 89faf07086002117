import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lasir import (KernelParams, SemConfig, SimConfig, backproject, build_basis,
                   build_lattice, fit_sem, match_groups, mse_svc, nmi, power_type1, project,
                   simulate_cube, validate_projection)
from lasir.metrics import _holdout_mse


class TestNmi:
    def test_identical_labelings(self):
        assert nmi([1, 1, 2, 3, 2], [1, 1, 2, 3, 2]) == 1.0

    def test_relabeled_identical(self):
        assert nmi([1, 1, 2, 3, 2], [7, 7, 5, 2, 5]) == 1.0

    def test_independent_labelings(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_hand_computed_value(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 0]) == pytest.approx(0.3437110184854508,
                                                                rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 4, size=40)
        assert nmi(a, b) == pytest.approx(nmi(b, a), rel=1e-12)

    def test_single_cluster_both_sides(self):
        assert nmi([1, 1, 1], [2, 2, 2]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            nmi([1, 2], [1, 2, 3])

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 4, size=30)
            b = rng.integers(0, 4, size=30)
            assert 0.0 <= nmi(a, b) <= 1.0


class TestMseSvc:
    def test_exact_match(self):
        maps = np.random.default_rng(2).standard_normal((3, 10))
        assert mse_svc(maps, maps) == 0.0

    def test_constant_offset(self):
        truth = np.zeros((2, 5))
        assert mse_svc(truth + 3.0, truth) == pytest.approx(9.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse_svc(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_permutation_matching_restores_score(self):
        rng = np.random.default_rng(3)
        truth_maps = rng.standard_normal((3, 8))
        truth_labels = np.repeat([1, 2, 3], 10)
        perm = np.array([3, 1, 2])
        est_labels = perm[truth_labels - 1]
        est_maps = np.empty_like(truth_maps)
        for k in range(3):
            est_maps[perm[k] - 1] = truth_maps[k]
        matched = match_groups(est_labels, truth_labels, 3)
        aligned = np.empty_like(est_maps)
        for k_est in range(3):
            aligned[matched[k_est] - 1] = est_maps[k_est]
        assert mse_svc(aligned, truth_maps) == 0.0


class TestPowerType1:
    def test_perfect_detection(self):
        truth = np.array([True, False, True, False])
        power, type1 = power_type1(truth, truth)
        assert power == 1.0 and type1 == 0.0

    def test_reject_everything(self):
        truth = np.array([True, False, False])
        power, type1 = power_type1(np.ones(3, dtype=bool), truth)
        assert power == 1.0 and type1 == 1.0

    def test_undefined_rates_are_none(self):
        power, type1 = power_type1(np.array([True, False]), np.array([True, True]))
        assert type1 is None and power == 0.5
        power, type1 = power_type1(np.array([False, False]), np.array([False, False]))
        assert power is None and type1 == 0.0

    def test_rates_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            reject = rng.random(50) < 0.3
            truth = rng.random(50) < 0.5
            if truth.any() and (~truth).any():
                power, type1 = power_type1(reject, truth)
                assert 0.0 <= power <= 1.0 and 0.0 <= type1 <= 1.0


@pytest.fixture(scope="module")
def fitted():
    cfg = SimConfig(dims=(6, 6, 6), n=120, n_groups=2, sigma=1.0, seed=3, n_sites=4)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 2, SemConfig(restarts=3, seed=8))
    return dataset, basis, fit


class TestValidateProjection:
    def test_single_stratum_within_equals_without(self):
        cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=1, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
        within = validate_projection(dataset, basis, fit, "within", n_splits=4, seed=9)
        without = validate_projection(dataset, basis, fit, "without", n_splits=4, seed=9)
        assert np.array_equal(within.mse, without.mse)

    def test_deterministic_given_seed(self, fitted):
        dataset, basis, fit = fitted
        a = validate_projection(dataset, basis, fit, "within", n_splits=3, seed=2)
        b = validate_projection(dataset, basis, fit, "within", n_splits=3, seed=2)
        assert np.array_equal(a.mse, b.mse)

    def test_shuffled_is_worst_on_structured_data(self, fitted):
        dataset, basis, fit = fitted
        within = validate_projection(dataset, basis, fit, "within", n_splits=10, seed=4)
        shuffled = validate_projection(dataset, basis, fit, "shuffled", n_splits=10, seed=4)
        assert within.mse.mean() < shuffled.mse.mean()

    def test_unknown_mode(self, fitted):
        dataset, basis, fit = fitted
        with pytest.raises(ValueError, match="unknown mode"):
            validate_projection(dataset, basis, fit, "nope")


@functools.lru_cache(maxsize=None)
def _basis(masked):
    dims = (8, 7, 6)
    mask = "full"
    if masked:  # an ellipsoid, as brain masks are
        grid = np.stack(np.meshgrid(*[np.linspace(-1.2, 1.2, n) for n in dims], indexing="ij"))
        mask = (grid ** 2).sum(axis=0) <= 1.0
    return build_basis(build_lattice(dims, mask), KernelParams(0.01, 2.0), 3)


class TestParsevalMse:
    @given(seed=st.integers(0, 2**32 - 1), masked=st.booleans(), m=st.integers(1, 12),
           noise=st.sampled_from([0.1, 1.0, 10.0]), miss=st.sampled_from([0.0, 0.3, 3.0]))
    def test_matches_backprojected_mse(self, seed, masked, m, noise, miss):
        basis = _basis(masked)
        rng = np.random.default_rng(seed)
        signal = rng.standard_normal((m, basis.L)) @ basis.psi.T
        images = (signal + noise * rng.standard_normal((m, basis.d))).astype(np.float32)
        ytilde = project(images, basis)
        pred = ytilde + miss * rng.standard_normal(ytilde.shape)
        sq_norms = np.square(images, dtype=np.float64).sum(axis=1)
        direct = np.mean((images.astype(np.float64) - backproject(pred, basis)) ** 2)
        assert _holdout_mse(sq_norms, ytilde, pred, basis.d) == pytest.approx(direct, rel=1e-10)
