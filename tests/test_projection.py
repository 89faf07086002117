import copy
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from lasir import (Dataset, KernelParams, SemConfig, SimConfig, _blas, backproject, build_basis,
                   build_lattice, fit_sem, infer_maps, kmlr_fit, load_dataset, project,
                   projection, save_dataset, simulate_cube, svcm_fit, validate_projection)
from lasir import lattice as lattice_module
from lasir.basis import BasisSystem, _masked_gram
from lasir.bundles import load_basis, save_basis, save_fit
from lasir.cli import main as cli_main
from lasir.projection import projected
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


def _project_by_cells(images, basis):
    """`project` scattering each chunk through a 2-D int64 index."""
    layout = basis.layout
    cells = np.flatnonzero(layout.inside)
    fx, fy, fz = layout.factors
    mx, my, mz = fx.shape[0], fy.shape[0], fz.shape[0]
    H = basis.h + 1
    n, step = images.shape[0], projection._rows(basis)
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
    layout = basis.layout
    cells = np.flatnonzero(layout.inside)
    fx, fy, fz = layout.factors
    mz, my = fz.shape[0], fy.shape[0]
    H = basis.h + 1
    raw = coefs @ basis.T.T
    n, step = raw.shape[0], projection._rows(basis)
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
    cells = np.flatnonzero(layout.inside)
    rng = np.random.default_rng(basis.d)
    images = rng.standard_normal((7, basis.d)).astype(dtype)
    coefs = rng.standard_normal((7, basis.L))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "CHUNK", 3 * projection._row_floats(basis))
        assert projection._rows(basis) == 3
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["full", "ellipsoid"])
def test_threaded_projection_keeps_the_serial_bits(name, dtype, monkeypatch, allow_cpus):
    # 9 chunks of 2 rows, the last of one, with the pass's values at the
    # threshold of dealing
    lattice = build_lattice((5, 6, 4)) if name == "full" else _ellipsoid()
    basis = build_basis(lattice, KernelParams(0.05, 1.0), 3)
    monkeypatch.setattr(projection, "CHUNK", 2 * projection._row_floats(basis))
    assert projection._rows(basis) == 2
    n = 17
    monkeypatch.setattr(_blas, "PARALLEL_VALUES", n * basis.d)
    images = np.random.default_rng(3).standard_normal((n, basis.d)).astype(dtype)
    pools = allow_cpus(1)
    serial = project(images, basis)
    assert pools == []  # one worker: no pool, the calling thread
    assert np.array_equal(serial, _project_by_cells(images, basis))
    for count in (2, 3):
        pools = allow_cpus(count)
        assert np.array_equal(project(images, basis), serial)
        assert pools == [count]


@pytest.fixture
def project_calls(monkeypatch):
    """Calls of `projection.project`, counted through every lasir module
    binding that holds it, as the benchmark's spans count them."""
    calls = []
    original = projection.project

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs["basis"])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lasir" or name.startswith("lasir.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture(scope="module")
def simulated():
    dataset, _, _, basis = simulate_cube(SimConfig(dims=(5, 5, 5), n=60, n_groups=2, n_sites=3,
                                                   seed=4))
    return dataset, basis


def _fresh(dataset, images=None):
    """A Dataset over `images` (default: the same array) and `dataset`'s
    covariates: it holds no projection record yet."""
    return Dataset(images=dataset.images if images is None else images,
                   exposures=dataset.exposures, controls=dataset.controls, sites=dataset.sites)


class TestOneProjectionPerDatasetAndBasis:
    def test_fit_then_three_validations_project_once(self, simulated, project_calls):
        dataset, basis = _fresh(simulated[0]), simulated[1]
        fit = fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=1))
        for mode in ("within", "without", "shuffled"):
            validate_projection(dataset, basis, fit, mode, n_splits=3, seed=2)
        assert len(project_calls) == 1

    def test_kmlr_then_svcm_project_once(self, simulated, project_calls):
        dataset, basis = _fresh(simulated[0]), simulated[1]
        kmlr_fit(dataset, basis, 2, SemConfig(seed=1))
        svcm_fit(dataset, basis)
        assert len(project_calls) == 1

    def test_another_basis_or_other_images_project_again(self, simulated, project_calls):
        dataset, basis = _fresh(simulated[0]), simulated[1]
        other = build_basis(build_lattice((5, 5, 5)), KernelParams(0.02, 1.0), 3)
        first = projected(dataset, basis)
        assert projected(dataset, basis) is first
        projected(dataset, other)
        assert projected(_fresh(dataset, dataset.images.copy()), basis) is not first
        assert [b.key for b in project_calls] == [basis.key, other.key, basis.key]

    def test_a_reloaded_basis_reuses_the_record(self, simulated, project_calls, tmp_path):
        dataset, basis = _fresh(simulated[0]), simulated[1]
        first = projected(dataset, basis)
        save_basis(basis, tmp_path / "basis")
        reloaded = load_basis(tmp_path / "basis")
        assert reloaded is not basis and reloaded.key == basis.key
        assert projected(dataset, reloaded) is first
        assert len(project_calls) == 1

    def test_record_equals_a_bare_projection_and_is_read_only(self, simulated):
        dataset, basis = _fresh(simulated[0]), simulated[1]
        record = projected(dataset, basis)
        with _blas.single_thread:
            assert np.array_equal(record.ytilde, project(dataset.images, basis))
        assert np.array_equal(record.sq_norms,
                              np.square(dataset.images, dtype=np.float64).sum(axis=1))
        with pytest.raises(ValueError, match="read-only"):
            record.ytilde[0, 0] = 1.0

    def test_threads_asking_at_once_share_one_record(self, simulated, project_calls):
        dataset, basis = _fresh(simulated[0]), simulated[1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(projected, dataset, basis) for _ in range(32)]
                records = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(record is records[0] for record in records)
        assert len(project_calls) == 1

    def test_validate_mode_all_projects_once(self, simulated, project_calls, tmp_path):
        dataset, basis = simulated
        lattice = build_lattice((5, 5, 5))
        save_dataset(dataset, lattice, tmp_path / "images", tmp_path / "covariates.csv")
        save_basis(basis, tmp_path / "basis")
        fit = fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=1))
        fit.basis = basis.identity()
        save_fit(fit, tmp_path / "fit")
        project_calls.clear()
        assert cli_main(["validate", "--fit", str(tmp_path / "fit"),
                         "--images", str(tmp_path / "images"),
                         "--covariates", str(tmp_path / "covariates.csv"),
                         "--basis", str(tmp_path / "basis"),
                         "--mode", "all", "--splits", "3", "--seed", "1"]) == 0
        assert len(project_calls) == 1


def test_dataset_images_are_read_only(simulated):
    dataset = _fresh(simulated[0], simulated[0].images.copy())
    with pytest.raises(ValueError, match="read-only"):
        dataset.images[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        dataset.images += 1.0


def _saved(dataset, lattice, base):
    """`dataset` written as a volume bundle plus covariate table at `base`,
    and loaded back: a Dataset over the unread payload."""
    save_dataset(dataset, lattice, base, str(base) + ".csv")
    return load_dataset(base, str(base) + ".csv", lattice)


class TestStreamedRecord:
    """A loaded dataset streams its payload into the projection record."""

    @pytest.mark.parametrize("name", ["full", "ellipsoid"])
    @pytest.mark.parametrize("rows", [1, 2, None])
    def test_streamed_record_equals_the_record_in_memory(self, name, rows, tmp_path,
                                                         monkeypatch, allow_cpus):
        lattice = build_lattice((5, 6, 4)) if name == "full" else _ellipsoid()
        basis = build_basis(lattice, KernelParams(0.05, 1.0), 3)
        n = 17
        monkeypatch.setattr(_blas, "PARALLEL_VALUES", n * basis.d)  # every pass may be dealt
        rng = np.random.default_rng(6)
        dataset = Dataset(images=rng.standard_normal((n, basis.d)).astype(np.float32),
                          exposures=np.ones((n, 1)), controls=np.zeros((n, 0)),
                          sites=np.ones((n, 1)))
        allow_cpus(1)
        memory = projected(dataset, basis)
        loaded = _saved(dataset, lattice, tmp_path / "img")
        assert isinstance(loaded.image_source, lattice_module.VolumePayload)
        step = n if rows is None else rows  # projection and squared-norm chunks
        monkeypatch.setattr(projection, "CHUNK", step * projection._row_floats(basis))
        monkeypatch.setattr(projection, "IMAGE_CHUNK", step * lattice.d)
        assert projection._rows(basis) == step
        for count in (1, 2, 3):
            pools = allow_cpus(count)
            loaded.projections.clear()
            record = projected(loaded, basis)
            assert np.array_equal(record.ytilde.view(np.uint64), memory.ytilde.view(np.uint64))
            assert np.array_equal(record.sq_norms.view(np.uint64),
                                  memory.sq_norms.view(np.uint64))
            dealt = count > 1 and step < n  # a lone chunk runs on the calling thread
            assert pools == ([count] * 2 if dealt else [])  # ytilde, then sq_norms

    def test_a_non_finite_value_names_the_first_bad_row_and_leaves_no_record(
            self, tmp_path, monkeypatch, allow_cpus):
        # 12 one-row chunks dealt to threads; the part holding the lower bad
        # row (3) may finish after the one holding the higher (10)
        monkeypatch.setattr(_blas, "PARALLEL_VALUES", 0)
        dataset, basis = simulate_cube(SimConfig(dims=(5, 5, 5), n=12, n_groups=2, n_sites=2,
                                                 seed=4))[::3]
        images = dataset.images.copy()
        images[10, 0], images[3, -1] = np.nan, -np.inf
        bad = Dataset(images=images, exposures=dataset.exposures, controls=dataset.controls,
                      sites=dataset.sites)
        lattice = build_lattice((5, 5, 5))
        monkeypatch.setattr(projection, "CHUNK", projection._row_floats(basis))
        monkeypatch.setattr(lattice_module, "CHUNK", lattice.d)
        assert projection._rows(basis) == 1
        for count in (1, 2, 3):
            allow_cpus(count)
            loaded = _saved(bad, lattice, tmp_path / f"img{count}")  # the load reads no image
            for request in (lambda: projected(loaded, basis), lambda: projected(loaded, basis),
                            lambda: fit_sem(loaded, basis, 2, SemConfig(restarts=2, seed=1)),
                            lambda: loaded.images):
                with pytest.raises(ValueError, match="individual index 3$"):
                    request()
                assert loaded.projections == {}

    def test_infer_needs_no_payload(self, simulated, tmp_path):
        dataset, basis = simulated
        loaded = _saved(dataset, build_lattice((5, 5, 5)), tmp_path / "img")
        fit = fit_sem(loaded, basis, 2, SemConfig(restarts=2, seed=1))
        (tmp_path / "img.dat").unlink()
        maps = infer_maps(fit, loaded, basis)
        expected = infer_maps(fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=1)),
                              dataset, basis)
        for got, want in zip(maps, expected):
            assert np.array_equal(got.wald, want.wald)
        with pytest.raises(FileNotFoundError):
            loaded.images

    def test_load_and_project_hold_no_image_array(self, tmp_path):
        lattice = build_lattice((30, 30, 30))
        basis = build_basis(lattice, KernelParams(0.05, 1.0), 2)
        n = 120
        images = np.random.default_rng(8).standard_normal((n, lattice.d)).astype(np.float32)
        save_dataset(Dataset(images=images, exposures=np.ones((n, 1)),
                             controls=np.zeros((n, 0)), sites=np.ones((n, 1))),
                     lattice, tmp_path / "img", tmp_path / "img.csv")
        del images
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path / "img", tmp_path / "img.csv", lattice)
            record = projected(loaded, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.ytilde.shape == (n, basis.L)
        assert peak < n * lattice.d * 4
