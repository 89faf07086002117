import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import lasir
from lasir import (KernelParams, SemConfig, SimConfig, _blas, build_basis, build_lattice,
                   draw_labels, fit_sem, load_dataset, make_group_svcs, sample_gp,
                   save_dataset, simulate_cube, smoothed_center_cube, trig_map)
from lasir.basis import BasisSystem
from lasir.simulate import gp_from_coeffs
from test_basis import tensor_products


class TestSampleGP:
    def test_zero_coefficients_give_zero_field(self):
        lat = build_lattice((5, 5, 5))
        basis = build_basis(lat, KernelParams(0.01, 2.0), 3)
        assert np.all(gp_from_coeffs(basis, np.zeros(basis.L)) == 0.0)

    def test_center_variance_matches_truncated_expansion(self):
        lat = build_lattice((7, 7, 7))
        basis = build_basis(lat, KernelParams(0.01, 2.0), 5)
        center = int(np.argmin((lat.coords ** 2).sum(axis=1)))
        analytic = float((basis.eigvals * basis.psi[center] ** 2).sum())
        rng = np.random.default_rng(42)
        draws = np.array([sample_gp(lat, basis, rng)[center] for _ in range(2000)])
        assert abs(draws.var() / analytic - 1.0) < 0.10

    def test_masked_variance_pairs_eigenvalues_with_degrees(self):
        # On a masked lattice the field's pointwise variance is
        # sum_l e_l psi_l(v)^2 with psi_l the Gram-Schmidt column of tensor
        # degree l, taken here from a dense QR of the tensor products. A rough
        # kernel (B = 0.17) makes a mispairing of eigenvalues and columns show.
        dims = (8, 9, 7)
        grids = np.meshgrid(*[np.linspace(-1, 1, m) for m in dims], indexing="ij")
        lattice = build_lattice(dims, sum(g ** 2 for g in grids) <= 1.1)
        params = KernelParams(0.5, 1.0)
        basis = build_basis(lattice, params, 4)
        Q = np.linalg.qr(tensor_products(lattice, params, 4))[0]
        expected = (Q ** 2) @ basis.eigvals
        rng = np.random.default_rng(0)
        n = 4000
        draws = np.stack([sample_gp(lattice, basis, rng) for _ in range(n)])
        # per voxel, the mean square over n draws has relative sd sqrt(2/n)
        assert np.abs((draws ** 2).mean(axis=0) / expected - 1.0).max() < 6 * np.sqrt(2 / n)

    def test_seed_controls_field(self):
        lat = build_lattice((5, 5, 5))
        basis = build_basis(lat, KernelParams(0.01, 2.0), 3)
        a = sample_gp(lat, basis, np.random.default_rng(1))
        b = sample_gp(lat, basis, np.random.default_rng(1))
        c = sample_gp(lat, basis, np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("masked", [False, True])
    def test_factored_field_never_reads_psi(self, monkeypatch, masked):
        dims = (9, 10, 8)
        mask = "full"
        if masked:
            grids = np.meshgrid(*[np.linspace(-1, 1, m) for m in dims], indexing="ij")
            mask = sum(g ** 2 for g in grids) <= 1.0
        lattice = build_lattice(dims, mask)
        basis = build_basis(lattice, KernelParams(0.01, 2.0), 4)
        monkeypatch.setattr(lasir.basis, "PSI_BLOCK", 1)  # 64-row blocks
        with monkeypatch.context() as m, _blas.single_thread:
            m.setattr(BasisSystem, "psi", property(lambda self: pytest.fail("psi read")))
            field = sample_gp(lattice, basis, np.random.default_rng(3))
        with _blas.single_thread:
            xi = np.random.default_rng(3).standard_normal(basis.L)
            expected = basis.psi @ (np.sqrt(basis.eigvals) * xi)
        assert field.tobytes() == expected.tobytes()


class TestGroupMaps:
    def test_trig_map_center_and_known_point(self):
        lat = build_lattice((5, 5, 5))
        t = trig_map(lat)
        center = int(np.argmin((lat.coords ** 2).sum(axis=1)))
        assert t[center] == pytest.approx(1.0, abs=1e-12)  # sin 0 + cos 0 - sin 0
        at = np.nonzero((lat.coords == [0.5, 0.0, 0.0]).all(axis=1))[0][0]
        assert t[at] == pytest.approx(1.9092974268256817, rel=1e-12)

    def test_center_cube_support(self):
        lat = build_lattice((9, 9, 9))
        m = smoothed_center_cube(lat)
        far = np.abs(lat.coords).max(axis=1) >= 1.0
        assert np.all(m[far] == 0.0)
        center = int(np.argmin((lat.coords ** 2).sum(axis=1)))
        assert m[center] == pytest.approx(1.0, abs=1e-3)
        assert m.max() <= 1.0 + 1e-12

    def test_three_maps_shape(self):
        lat = build_lattice((5, 5, 5))
        basis = build_basis(lat, KernelParams(0.01, 2.0), 3)
        maps = make_group_svcs(lat, np.random.default_rng(0), basis)
        assert maps.shape == (3, lat.d)


class TestDrawLabels:
    def test_gating_frequencies_at_zero_control(self):
        gating = np.array([[-0.6, 1.0], [0.5, 1.0], [0.0, 0.0]])
        z = np.zeros((100_000, 1))
        labels = draw_labels(gating, z, np.random.default_rng(5))
        freq = np.bincount(labels, minlength=4)[1:] / labels.size
        expected = [0.17163596187795446, 0.5156229251611161, 0.31274111296092955]
        assert np.abs(freq - expected).max() < 0.01


class TestSimulateCube:
    def test_seed_reproducibility_bit_exact(self):
        cfg = SimConfig(dims=(5, 5, 5), n=50, n_groups=3, sigma=1.0, seed=12)
        d1, t1, _, _ = simulate_cube(cfg)
        d2, t2, _, _ = simulate_cube(SimConfig(dims=(5, 5, 5), n=50, n_groups=3,
                                               sigma=1.0, seed=12))
        assert np.array_equal(d1.images, d2.images)
        assert np.array_equal(d1.exposures, d2.exposures)
        assert np.array_equal(t1.labels, t2.labels)
        assert np.array_equal(t1.alpha, t2.alpha)

    def test_truth_dataset_consistency(self):
        # residuals after removing the true mean must have sd close to sigma
        cfg = SimConfig(dims=(15, 15, 15), n=300, n_groups=3, sigma=1.0, seed=8)
        ds, truth, lattice, basis = simulate_cube(cfg)
        x = ds.exposures[:, 1][:, None]
        mu = (truth.alpha[truth.labels - 1, 0] + x * truth.alpha[truth.labels - 1, 1]
              + ds.sites @ truth.gamma[ds.site_codes - 1] + ds.controls @ truth.eta)
        resid = ds.images.astype(np.float64) - mu
        assert resid.size >= 1_000_000
        assert abs(resid.std() / cfg.sigma - 1.0) < 0.02

    def test_single_group_uses_trig_slope(self):
        cfg = SimConfig(dims=(5, 5, 5), n=30, n_groups=1, sigma=1.0, seed=0, n_sites=2)
        ds, truth, lattice, basis = simulate_cube(cfg)
        assert truth.alpha.shape == (1, 2, lattice.d)
        assert np.allclose(truth.alpha[0, 1], trig_map(lattice))
        assert np.all(truth.labels == 1)

    def test_null_exposure_zeroes_slopes(self):
        cfg = SimConfig(dims=(5, 5, 5), n=30, n_groups=3, sigma=1.0, seed=0,
                        null_exposure=True)
        ds, truth, lattice, basis = simulate_cube(cfg)
        assert np.all(truth.alpha[:, 1, :] == 0.0)

    def test_shared_intercept_mode(self):
        cfg = SimConfig(dims=(5, 5, 5), n=30, n_groups=3, sigma=1.0, seed=0,
                        shared_intercept=True)
        ds, truth, lattice, basis = simulate_cube(cfg)
        assert np.array_equal(truth.alpha[0, 0], truth.alpha[1, 0])
        assert np.array_equal(truth.alpha[0, 0], truth.alpha[2, 0])

    def test_noiseless_limit_recovers_slope_maps(self):
        # with known labels, project + m_step recovers the in-span slope up to
        # the O(n^-1/2) design-correlation error of the two-stage regression
        from lasir.projection import backproject, project
        from lasir.sem import m_step
        cfg = SimConfig(dims=(9, 9, 9), n=400, n_groups=3, sigma=1e-6, seed=5)
        ds, truth, lattice, basis = simulate_cube(cfg)
        ytilde = project(ds.images, basis)
        params = m_step(ytilde, ds, truth.labels, 3)
        slope_hat = backproject(params.theta_alpha[1, 1], basis)[0]
        t = trig_map(lattice)
        assert np.linalg.norm(slope_hat - t) / np.linalg.norm(t) < 0.1

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="sigma"):
            SimConfig(sigma=0.0)
        with pytest.raises(ValueError, match="groups"):
            SimConfig(n_groups=5)

    def test_sites_drawn_by_nobody_leave_no_column(self, tmp_path):
        # 40 individuals over 21 sites leave some sites empty; an empty site
        # column would make stage 1 rank deficient
        cfg = SimConfig(dims=(5, 5, 5), n=40, n_groups=2, seed=4)
        ds, truth, lattice, basis = simulate_cube(cfg)
        assert truth.gamma.shape[0] == cfg.n_sites
        assert ds.sites.shape[1] < cfg.n_sites and ds.sites.any(axis=0).all()
        fit = fit_sem(ds, basis, 2, SemConfig(restarts=2, seed=0, threads=1))
        assert fit.labels.shape == (cfg.n,)
        save_dataset(ds, lattice, tmp_path / "vol", tmp_path / "cov.csv")
        loaded = load_dataset(tmp_path / "vol", tmp_path / "cov.csv", lattice)
        assert np.array_equal(loaded.sites, ds.sites)
        assert loaded.site_codes.astype(int).tolist() == ds.site_codes.tolist()


_SIMULATE_HASH_SCRIPT = textwrap.dedent("""
    import hashlib
    import numpy as np
    from lasir import SimConfig, simulate_cube
    dims = (41, 47, 37)
    grids = np.meshgrid(*[np.linspace(-1.0, 1.0, m) for m in dims], indexing="ij")
    mask = sum((g / s) ** 2 for g, s in zip(grids, (0.9, 0.9, 0.85))) <= 1.0
    dataset, truth, lattice, basis = simulate_cube(
        SimConfig(dims=dims, mask=mask, n=20, basis_degree=10, seed=3))
    digest = hashlib.sha256()
    for part in (dataset.images, truth.alpha, truth.labels, truth.gamma, truth.eta):
        digest.update(np.ascontiguousarray(part).tobytes())
    print(digest.hexdigest())
""")


def test_simulate_cube_bit_identical_across_blas_pool_sizes():
    # on this ellipsoid the products with psi differ between pool sizes
    # unless simulate_cube pins BLAS; a 15^3 cube would not show it
    src = os.path.dirname(os.path.dirname(lasir.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _SIMULATE_HASH_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
