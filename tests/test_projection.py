import copy

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from lasir import KernelParams, backproject, build_basis, build_lattice, project, projection
from lasir.basis import BasisSystem, _masked_gram
from lasir.inference import _variance_field
from test_basis import masked_lattices


def _identity_basis(d):
    return BasisSystem(psi=np.eye(d), eigvals=np.ones(d), h=0,
                       params=KernelParams(0.01, 2.0))


def test_identity_basis_passthrough():
    basis = _identity_basis(6)
    images = np.random.default_rng(0).standard_normal((4, 6))
    assert np.allclose(project(images, basis), images)


def test_single_basis_column_maps_to_unit_vector():
    lat = build_lattice((5, 5, 5))
    basis = build_basis(lat, KernelParams(0.01, 2.0), 3)
    coef = project(basis.psi[:, 3], basis)
    expected = np.zeros(basis.L)
    expected[3] = 1.0
    assert np.allclose(coef[0], expected, atol=1e-10)


def test_parseval_contraction():
    lat = build_lattice((5, 5, 5))
    basis = build_basis(lat, KernelParams(0.01, 2.0), 2)
    images = np.random.default_rng(1).standard_normal((8, lat.d))
    coefs = project(images, basis)
    assert np.all(np.linalg.norm(coefs, axis=1) <= np.linalg.norm(images, axis=1) + 1e-12)


def test_project_backproject_is_identity_on_coefficients():
    lat = build_lattice((5, 5, 5))
    basis = build_basis(lat, KernelParams(0.01, 2.0), 3)
    coefs = np.random.default_rng(2).standard_normal((3, basis.L))
    round_trip = project(backproject(coefs, basis), basis)
    assert np.allclose(round_trip, coefs, atol=1e-10)


def test_zero_coefficients_give_zero_map():
    lat = build_lattice((4, 4, 4))
    basis = build_basis(lat, KernelParams(0.01, 2.0), 2)
    assert np.all(backproject(np.zeros((2, basis.L)), basis) == 0.0)


def test_dimension_mismatches():
    basis = _identity_basis(5)
    with pytest.raises(ValueError, match="column count"):
        project(np.zeros((2, 4)), basis)
    with pytest.raises(ValueError, match="column count"):
        backproject(np.zeros((2, 4)), basis)


def _ellipsoid(dims=(9, 11, 9)):
    """An ellipsoid lattice whose plane grid has empty (z, y) lines."""
    grids = np.meshgrid(*[np.linspace(-1, 1, m) for m in dims], indexing="ij")
    return build_lattice(dims, sum((g / s) ** 2 for g, s in zip(grids, (0.9, 0.9, 0.85))) <= 1)


def _holes():
    """A cube with an interior slab and a row cut out."""
    mask = np.ones((7, 7, 7), dtype=bool)
    mask[2:5, 2:5, 3] = False
    mask[1, 5, 1:6] = False
    return build_lattice(mask.shape, mask)


MASKS = {"ellipsoid": _ellipsoid, "holes": _holes}


@pytest.mark.parametrize("name", MASKS)
class TestMaskedLattices:
    def test_parseval_contraction(self, name):
        lat = MASKS[name]()
        basis = build_basis(lat, KernelParams(0.01, 2.0), 2)
        images = np.random.default_rng(1).standard_normal((8, lat.d))
        coefs = project(images, basis)
        assert np.all(np.linalg.norm(coefs, axis=1) <= np.linalg.norm(images, axis=1) + 1e-12)

    def test_project_backproject_is_identity_on_coefficients(self, name):
        basis = build_basis(MASKS[name](), KernelParams(0.01, 2.0), 3)
        coefs = np.random.default_rng(2).standard_normal((3, basis.L))
        assert np.allclose(project(backproject(coefs, basis), basis), coefs, atol=1e-10)

    def test_zero_coefficients_give_zero_map(self, name):
        basis = build_basis(MASKS[name](), KernelParams(0.01, 2.0), 2)
        assert np.all(backproject(np.zeros((2, basis.L)), basis) == 0.0)


def _cells(layout):
    """Each voxel's int64 index in the plane grid, x fastest."""
    (vx, vy, vz), (fx, fy, _) = layout.voxels, layout.factors
    return vx + fx.shape[0] * (vy + fy.shape[0] * vz)


def _project_by_cells(images, basis):
    """`project` scattering each chunk through a 2-D int64 index."""
    layout, cells = basis.layout, _cells(basis.layout)
    fx, fy, fz = layout.factors
    mx, my, mz = fx.shape[0], fy.shape[0], fz.shape[0]
    H = basis.h + 1
    n, step = images.shape[0], projection._rows(fx, fy, fz)
    out = np.empty((n, basis.L))
    grid = np.zeros((step, mz * my * mx))
    for start in range(0, n, step):
        m = min(step, n - start)
        grid[:m, cells] = images[start:start + m]
        t = grid[:m].reshape(m * mz * my, mx) @ fx
        t = fy.T @ t.reshape(m * mz, my, H)
        t = fz.T @ t.reshape(m, mz, H * H)
        out[start:start + m] = t.reshape(m, H ** 3)[:, layout.slots]
    return basis.from_tensor(out)


def _backproject_by_cells(coefs, basis):
    """`backproject` gathering each chunk through a 2-D int64 index."""
    layout, cells = basis.layout, _cells(basis.layout)
    fx, fy, fz = layout.factors
    mz, my = fz.shape[0], fy.shape[0]
    H = basis.h + 1
    raw = coefs @ basis.T.T
    n, step = raw.shape[0], projection._rows(fx, fy, fz)
    out = np.empty((n, basis.d))
    for start in range(0, n, step):
        m = min(step, n - start)
        cube = np.zeros((m, H ** 3))
        cube[:, layout.slots] = raw[start:start + m]
        t = fz @ cube.reshape(m, H, H * H)
        t = fy @ t.reshape(m * mz, H, H)
        t = t.reshape(m * mz * my, H) @ fx.T
        out[start:start + m] = t.reshape(m, -1)[:, cells]
    return out


def _check_moves_match_index_arrays(basis, dtype):
    """The boolean-mask scatter and gathers give the int64 index formulas'
    values bit for bit: `project` and `backproject` in chunks of 3 rows with
    a ragged last chunk, the variance field's gather and the Gram's weight."""
    layout = basis.layout
    cells = _cells(layout)
    assert np.array_equal(np.flatnonzero(layout.inside), cells)
    rng = np.random.default_rng(basis.d)
    images = rng.standard_normal((7, basis.d)).astype(dtype)
    coefs = rng.standard_normal((7, basis.L))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "CHUNK", 3 * layout.inside.size)
        assert np.array_equal(project(images, basis), _project_by_cells(images, basis))
        assert np.array_equal(backproject(coefs, basis), _backproject_by_cells(coefs, basis))
    by_cells = copy.copy(basis)
    by_cells.layout = layout._replace(inside=cells)  # the gather becomes t.ravel()[cells]
    lam = rng.random(basis.L) + 0.1
    assert np.array_equal(_variance_field(basis, lam), _variance_field(by_cells, lam))
    weight = np.zeros(layout.inside.size)
    weight[cells] = 1.0
    assert np.array_equal(_masked_gram(layout, basis.h),
                          _masked_gram(layout._replace(inside=weight), basis.h))


@given(masked_lattices(), st.sampled_from([np.float32, np.float64]))
def test_masked_moves_match_index_arrays(case, dtype):
    lattice, h = case
    try:
        basis = build_basis(lattice, KernelParams(0.05, 1.0), h)
    except ValueError:
        reject()
    _check_moves_match_index_arrays(basis, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["full", "ellipsoid"])
def test_moves_match_index_arrays(name, dtype):
    lattice = build_lattice((5, 6, 4)) if name == "full" else _ellipsoid()
    basis = build_basis(lattice, KernelParams(0.05, 1.0), 3)
    mx = basis.layout.factors[0].shape[0]
    empty_lines = not basis.layout.inside.reshape(-1, mx).any(axis=1).all()
    assert empty_lines == (name == "ellipsoid")
    _check_moves_match_index_arrays(basis, dtype)
