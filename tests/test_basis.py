import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from lasir import (BasisSystem, KernelParams, backproject, basis_size, build_basis,
                   build_lattice, eigen_system_1d, kernel_eval, project, select_h,
                   tensor_degrees, variance_contribution)
from lasir import basis as basis_module
from lasir.inference import _variance_field
from lasir.lattice import axis_coords


class TestKernel:
    def test_same_point_is_origin_value(self):
        p = KernelParams(0.3, 7.0)
        assert kernel_eval((0, 0, 0), (0, 0, 0), p) == 1.0

    def test_direct_arithmetic(self):
        p = KernelParams(0.01, 2.0)
        val = kernel_eval((1, 0, 0), (0, 0, 0), p)
        assert val == pytest.approx(math.exp(-2.01), rel=1e-12)

    def test_symmetry(self):
        p = KernelParams(0.05, 3.0)
        v1, v2 = (0.2, -0.4, 0.9), (-0.1, 0.3, 0.5)
        assert kernel_eval(v1, v2, p) == kernel_eval(v2, v1, p)

    def test_positive_params_required(self):
        with pytest.raises(ValueError):
            KernelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, -2.0)


class TestBasisSize:
    @pytest.mark.parametrize("h,expected", [(0, 1), (12, 455), (14, 680), (17, 1140)])
    def test_reported_counts(self, h, expected):
        assert basis_size(h) == expected

    def test_increment_is_simplex_count(self):
        for h in range(1, 15):
            assert basis_size(h) - basis_size(h - 1) == math.comb(h + 2, 2)

    def test_strictly_increasing(self):
        sizes = [basis_size(h) for h in range(10)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


class TestEigenSystem1D:
    def test_geometric_ratio_value(self):
        # B = b / (a + b + sqrt(a^2 + 2ab)) for a=0.01, b=200
        eigvals, _ = eigen_system_1d(KernelParams(0.01, 200.0), 5)
        B = eigvals[1] / eigvals[0]
        assert B == pytest.approx(0.9900498750007812, rel=1e-12)
        ratios = eigvals[:-1] / eigvals[1:]
        assert np.allclose(ratios, 1.0 / B, rtol=1e-12)

    def test_degree_zero_is_gaussian_envelope(self):
        params = KernelParams(0.01, 2.0)
        c, _, _ = params.derived
        _, evaluate = eigen_system_1d(params, 3)
        x = np.linspace(-1, 1, 11)
        vals = evaluate(x)
        assert np.allclose(vals[:, 0], np.exp(-(c - params.a) * x ** 2))
        assert np.all(vals[:, 0] > 0)

    @pytest.mark.parametrize("max_degree", [0, 1, 2, 7, 20])
    def test_evaluator_is_the_hermite_recurrence(self, max_degree):
        params = KernelParams(0.01, 2.0)
        c, _, _ = params.derived
        _, evaluate = eigen_system_1d(params, max_degree)
        x = np.linspace(-1.0, 1.0, 17)
        # physicists' Hermite polynomials: H_{k+1} = 2t H_k - 2k H_{k-1}
        t = math.sqrt(2.0 * c) * x
        H = [np.ones_like(t), 2.0 * t]
        for k in range(1, max_degree):
            H.append(2.0 * t * H[k] - 2.0 * k * H[k - 1])
        expected = np.column_stack(H[:max_degree + 1]) * np.exp(-(c - params.a) * x ** 2)[:, None]
        assert np.array_equal(evaluate(x), expected)


def _brute_force_contribution(a, b, h, h_ref):
    # Independent oracle: enumerate the tensor triples and sum the
    # geometric eigenvalue of each.
    c = math.sqrt(a * a + 2 * a * b)
    B = b / (a + b + c)

    def total(hmax):
        return sum(B ** (k1 + k2 + k3)
                   for k1 in range(hmax + 1)
                   for k2 in range(hmax + 1 - k1)
                   for k3 in range(hmax + 1 - k1 - k2))

    return total(h) / total(h_ref)


class TestVarianceContribution:
    def test_full_reference_is_one(self):
        assert variance_contribution(KernelParams(0.2, 5.0), 9, 9) == 1.0

    def test_matches_brute_force_enumeration(self):
        for a, b, h, h_ref in [(0.01, 200.0, 14, 17), (0.01, 2.0, 5, 9),
                               (0.5, 30.0, 4, 12)]:
            got = variance_contribution(KernelParams(a, b), h, h_ref)
            assert got == pytest.approx(_brute_force_contribution(a, b, h, h_ref),
                                        rel=1e-12)

    def test_reported_rates(self):
        # frozen from the brute-force oracle
        r200 = variance_contribution(KernelParams(0.01, 200.0), 14, 17)
        r1250 = variance_contribution(KernelParams(0.01, 1250.0), 14, 17)
        assert r200 == pytest.approx(0.6099425061674196, rel=1e-12)
        assert r1250 == pytest.approx(0.6018648065968495, rel=1e-12)

    def test_non_decreasing_in_h(self):
        p = KernelParams(0.01, 80.0)
        rates = [variance_contribution(p, h, 17) for h in range(18)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 1.0


class TestSelectH:
    def test_full_rate_needs_reference_degree(self):
        assert select_h(KernelParams(0.01, 200.0), 17, 1.0) == 17

    def test_reported_choice(self):
        assert select_h(KernelParams(0.01, 200.0), 17, 0.6) == 14

    def test_tiny_rate_needs_degree_zero(self):
        assert select_h(KernelParams(0.01, 200.0), 17, 1e-12) == 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            select_h(KernelParams(0.01, 200.0), 17, 0.0)


class TestBuildBasis:
    def test_orthonormal_small(self):
        lat = build_lattice((6, 6, 6))
        basis = build_basis(lat, KernelParams(0.01, 2.0), 3)
        dev = np.abs(basis.psi.T @ basis.psi - np.eye(basis.L)).max()
        assert dev < 1e-8
        assert basis.L == basis_size(3)

    def test_orthonormal_masked(self):
        rng = np.random.default_rng(3)
        mask = rng.random((7, 7, 7)) < 0.7
        lat = build_lattice((7, 7, 7), mask)
        basis = build_basis(lat, KernelParams(0.01, 2.0), 4)
        dev = np.abs(basis.psi.T @ basis.psi - np.eye(basis.L)).max()
        assert dev < 1e-8

    def test_degree_zero_constant_sign_unit(self):
        lat = build_lattice((5, 4, 3))
        basis = build_basis(lat, KernelParams(0.1, 1.0), 0)
        col = basis.psi[:, 0]
        assert np.all(col > 0)
        assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)

    def test_exceeds_lattice_rank(self):
        lat = build_lattice((2, 2, 2))
        with pytest.raises(ValueError, match="basis exceeds lattice rank"):
            build_basis(lat, KernelParams(0.01, 2.0), 3)

    def test_degenerate_per_axis_degree(self):
        # degree 5 on a 4-plane axis cannot be resolved even though L <= d
        lat = build_lattice((4, 4, 4))
        with pytest.raises(ValueError, match="degenerate basis"):
            build_basis(lat, KernelParams(0.01, 2.0), 5)

    def test_deterministic_and_sign_fixed(self):
        lat = build_lattice((5, 5, 5))
        b1 = build_basis(lat, KernelParams(0.01, 2.0), 4)
        b2 = build_basis(lat, KernelParams(0.01, 2.0), 4)
        assert np.array_equal(b1.psi, b2.psi)
        peaks = b1.psi[np.abs(b1.psi).argmax(axis=0), np.arange(b1.L)]
        assert np.all(peaks >= 0)

    def test_eigvals_tensor_order_geometric(self):
        lat = build_lattice((6, 6, 6))
        basis = build_basis(lat, KernelParams(0.01, 2.0), 4)
        degrees = tensor_degrees(4).sum(axis=1)
        diffs = np.diff(basis.eigvals)
        assert np.all(diffs <= 1e-18)  # non-increasing in tensor order
        for n in range(4):
            low = basis.eigvals[degrees == n].min()
            high = basis.eigvals[degrees == n + 1].max()
            assert low > high


def tensor_products(lattice, params, h):
    """Dense d x L tensor products of the per-axis QR factors, in tensor-degree
    order, evaluated voxel by voxel."""
    _, evaluate = eigen_system_1d(params, h)
    per_axis = []
    for ax in range(3):
        values, index = np.unique(lattice.coords[:, ax], return_inverse=True)
        per_axis.append(np.linalg.qr(evaluate(values))[0][index])
    deg = tensor_degrees(h)
    return per_axis[0][:, deg[:, 0]] * per_axis[1][:, deg[:, 1]] * per_axis[2][:, deg[:, 2]]


def dense_reference(raw):
    """The dense Gram/eigh orthonormalization: rotate the tensor products by
    the eigenvectors of their Gram, scale, and refine with one Cholesky pass."""
    w, V = np.linalg.eigh(raw.T @ raw)
    psi = raw @ V / np.sqrt(w)
    corr = np.linalg.cholesky(psi.T @ psi)
    return np.linalg.solve(corr, psi.T).T


def _relative_gap(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


@st.composite
def masked_lattices(draw):
    dims = tuple(draw(st.integers(4, 8)) for _ in range(3))
    keep = draw(st.floats(0.5, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random(dims) < keep
    assume(mask.any())
    return build_lattice(dims, mask), draw(st.integers(1, 3))


@st.composite
def any_masks(draw):
    """Random dims of 1 to 7 planes per axis and a random non-empty mask."""
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random(dims) < draw(st.floats(0.05, 1.0))
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    return mask


class TestSetUpFromTheMask:
    """The lattice's coordinates, the basis's plane coordinates and the
    tensor products, taken from the mask, against the formulations through
    a full-box meshgrid and per-voxel plane indices."""

    @given(any_masks())
    def test_coords_and_planes_match_the_meshgrid_gather(self, mask):
        lattice = build_lattice(mask.shape, mask)
        grids = np.meshgrid(*(axis_coords(m) for m in mask.shape), indexing="ij")
        keep = mask.ravel(order="F")
        expected = np.column_stack([g.ravel(order="F")[keep] for g in grids])
        assert lattice.d == expected.shape[0]
        assert np.array_equal(lattice.coords, expected)
        assert lattice.coords.dtype == expected.dtype
        for ax, present in enumerate(basis_module._planes(mask)):
            assert np.array_equal(axis_coords(mask.shape[ax])[present],
                                  np.unique(expected[:, ax]))

    @given(any_masks(), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
    def test_tensor_blocks_match_products_at_searchsorted_plane_indices(self, mask, h, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((m, h + 1)) for m in mask.shape]
        L = basis_size(h)
        basis = BasisSystem(np.ones(L), h, KernelParams(0.05, 1.0), factors=factors,
                            mask=mask, T=np.eye(L))
        present = [np.flatnonzero(mask.any(axis=tuple(o for o in range(3) if o != ax)))
                   for ax in range(3)]
        flat = np.flatnonzero(mask.ravel(order="F"))
        nx, ny, _ = mask.shape
        index = (flat % nx, flat // nx % ny, flat // (nx * ny))
        voxels = [np.searchsorted(p, i) for p, i in zip(present, index)]
        a, b, c = tensor_degrees(h).T
        fx, fy, fz = (f[p] for f, p in zip(factors, present))
        expected = fx[voxels[0]][:, a] * fy[voxels[1]][:, b] * fz[voxels[2]][:, c]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(basis_module, "PSI_BLOCK", 1)  # blocks of 64 rows
            blocks = list(basis.tensor_blocks())
        assert [rows.start for rows, _ in blocks] == list(range(0, flat.size, 64))
        assert np.array_equal(np.concatenate([raw for _, raw in blocks]), expected)


def test_psi_blocks_keep_the_bits_of_the_larger_blocks():
    # d * L above 2^20 entries: psi is read in several blocks of either size
    dims = (30, 30, 30)
    grids = np.meshgrid(*[np.linspace(-1, 1, m) for m in dims], indexing="ij")
    lattice = build_lattice(dims, sum((g / s) ** 2 for g, s in zip(grids, (0.9, 0.9, 0.85))) <= 1)
    basis = build_basis(lattice, KernelParams(0.05, 1.0), 8)
    assert basis.d * basis.L > 1 << 20 and basis_module.PSI_BLOCK == 1 << 18
    psi = basis.psi
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basis_module, "PSI_BLOCK", 1 << 20)
        assert np.array_equal(psi.view(np.uint64), basis.psi.view(np.uint64))


class TestFactoredBasis:
    @given(masked_lattices())
    def test_matches_dense_reference_on_random_masks(self, case):
        lattice, h = case
        params = KernelParams(0.05, 1.0)
        assume(basis_size(h) <= lattice.d
               and all(np.unique(lattice.coords[:, ax]).size > h for ax in range(3)))
        raw = tensor_products(lattice, params, h)
        s = np.linalg.svd(raw, compute_uv=False)
        assume(s[-1] > 1e-6 * s[0])
        basis = build_basis(lattice, params, h)
        psi, ref = basis.psi, dense_reference(raw)
        assert np.abs(psi @ psi.T - ref @ ref.T).max() <= 1e-10
        assert np.abs(psi.T @ psi - np.eye(basis.L)).max() <= 1e-8

        rng = np.random.default_rng(0)
        images = rng.standard_normal((5, lattice.d)).astype(np.float32)
        assert _relative_gap(project(images, basis), images.astype(float) @ psi) <= 1e-12
        coefs = rng.standard_normal((3, basis.L))
        assert _relative_gap(backproject(coefs, basis), coefs @ psi.T) <= 1e-12
        lam = rng.random(basis.L) + 0.1
        assert _relative_gap(_variance_field(basis, lam), (psi * psi) @ lam) <= 1e-12

    def test_ill_conditioned_mask_stays_orthonormal(self):
        # A spherical shell: cond(G) is about 4e8, so the second Cholesky pass
        # formed from G alone would leave max|psi'psi - I| near 1e-8.
        dims = (18, 18, 18)
        grids = np.meshgrid(*[np.linspace(-1, 1, m) for m in dims], indexing="ij")
        r2 = sum(g ** 2 for g in grids)
        lattice = build_lattice(dims, (r2 >= 0.6) & (r2 <= 0.9))
        params = KernelParams(0.01, 2.0)
        basis = build_basis(lattice, params, 8)
        psi, ref = basis.psi, dense_reference(tensor_products(lattice, params, 8))
        assert np.abs(psi.T @ psi - np.eye(basis.L)).max() <= 1e-10
        assert np.abs(psi @ psi.T - ref @ ref.T).max() <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masked_column_j_has_leading_tensor_degree_j(self, seed):
        mask = np.random.default_rng(seed).random((7, 8, 6)) < 0.7
        lattice = build_lattice((7, 8, 6), mask)
        params = KernelParams(0.01, 2.0)
        basis = build_basis(lattice, params, 3)
        T = basis.T
        assert np.all(np.tril(T, -1) == 0.0)
        assert np.all(np.diag(T) > 0.0)
        # psi = raw @ C with C upper triangular and a positive diagonal: column
        # j mixes tensor products 0..j only and has a component along product j
        raw = tensor_products(lattice, params, 3)
        C = np.linalg.lstsq(raw, basis.psi, rcond=None)[0]
        assert np.abs(np.tril(C, -1)).max() <= 1e-10
        assert np.all(np.diag(C) > 1e-3)

    def test_full_grid_keeps_tensor_products(self):
        lattice = build_lattice((6, 7, 5))
        params = KernelParams(0.01, 2.0)
        basis = build_basis(lattice, params, 3)
        assert np.array_equal(np.abs(basis.T), np.eye(basis.L))
        assert np.array_equal(np.abs(basis.psi), np.abs(tensor_products(lattice, params, 3)))

    def test_lattice_check_names_the_mismatch(self):
        mask = np.ones((5, 5, 5), dtype=bool)
        mask[0, 0, 0] = False
        other = np.ones((5, 5, 5), dtype=bool)
        other[4, 4, 4] = False
        basis = build_basis(build_lattice((5, 5, 5), mask), KernelParams(0.01, 2.0), 2)
        basis.check_lattice(build_lattice((5, 5, 5), mask))
        with pytest.raises(ValueError, match="basis mask does not match.*2 grid cells"):
            basis.check_lattice(build_lattice((5, 5, 5), other))
        with pytest.raises(ValueError, match="basis grid"):
            basis.check_lattice(build_lattice((5, 5, 6)))

    @pytest.mark.parametrize("h", [0, 4])
    def test_ellipsoid_basis_is_scipys_to_the_bit(self, monkeypatch, h):
        # the triangular solves return Fortran order, as scipy's do: with a
        # C-ordered solve, 101 of the h=4 basis's 1,225 T entries move; at
        # h=0 the solves are of 1 x 1 systems
        dims = (14, 13, 12)
        grids = np.meshgrid(*(np.linspace(-1.0, 1.0, m) for m in dims), indexing="ij")
        mask = sum((g / s) ** 2 for g, s in zip(grids, (0.9, 0.9, 0.85))) <= 1.0
        lattice = build_lattice(dims, mask)
        params = KernelParams(0.01, 2.0)
        ours = build_basis(lattice, params, h)
        monkeypatch.setattr(basis_module, "solve_upper", lambda R, B: solve_triangular(R, B))
        scipys = build_basis(lattice, params, h)
        assert np.array_equal(ours.T, scipys.T)
        assert np.array_equal(ours.psi, scipys.psi)
