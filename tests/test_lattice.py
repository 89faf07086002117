import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lasir
from lasir import bundles
from lasir import lattice as lattice_module
from lasir import projection as projection_module
from lasir import (Dataset, KernelParams, build_basis, build_lattice, lattice_from_volume,
                   load_dataset, load_volume_map, save_dataset, save_volume_map)
from lasir.io import read_kv, write_kv
from lasir.projection import projected


def test_axis_coords_symmetric_affine():
    lat = build_lattice((3, 1, 1))
    assert np.allclose(lat.coords[:, 0], [-1.0, 0.0, 1.0])
    assert np.all(lat.coords[:, 1] == 0.0)
    assert np.all(lat.coords[:, 2] == 0.0)


def test_full_cube_count():
    lat = build_lattice((25, 25, 25))
    assert lat.d == 25 ** 3
    assert np.all(np.abs(lat.coords) <= 1.0)


def test_masked_count():
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, 0] = mask[0, 1, 1] = True
    lat = build_lattice((2, 2, 2), mask)
    assert lat.d == 3


def test_x_fastest_enumeration():
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[1, 0, 0] = True
    lat = build_lattice((2, 2, 2), mask)
    # linear index ix + nx*(iy + ny*iz) = 1
    assert np.nonzero(lat.flat_mask)[0].tolist() == [1]
    assert np.allclose(lat.coords[0], [1.0, -1.0, -1.0])


def test_empty_mask_rejected():
    with pytest.raises(ValueError, match="empty lattice"):
        build_lattice((2, 2, 2), np.zeros((2, 2, 2), dtype=bool))


def test_mask_shape_mismatch():
    with pytest.raises(ValueError, match="does not match dims"):
        build_lattice((2, 2, 2), np.ones((3, 2, 2), dtype=bool))


def test_rebuild_deterministic():
    a = build_lattice((4, 5, 6))
    b = build_lattice((4, 5, 6))
    assert np.array_equal(a.coords, b.coords)


def test_the_masked_path_never_forms_coordinates(tmp_path):
    # load, basis, bundle round trip, fit and maps of a masked volume bundle
    grids = np.meshgrid(*(np.linspace(-1.0, 1.0, m) for m in (9, 8, 7)), indexing="ij")
    mask = sum(g ** 2 for g in grids) <= 1.0
    written = build_lattice((9, 8, 7), mask)
    save_dataset(_toy_dataset(40, lattice=written), written, tmp_path / "img",
                 tmp_path / "cov.csv")
    lattice = lattice_from_volume(tmp_path / "img")
    dataset = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lattice)
    built = build_basis(lattice, KernelParams(0.05, 1.0), 2)
    bundles.save_basis(built, tmp_path / "basis")
    basis = bundles.load_basis(tmp_path / "basis")
    fit = lasir.fit_sem(dataset, basis, 2, lasir.SemConfig(restarts=2, seed=3))
    maps = lasir.infer_maps(fit, dataset, basis)
    assert dataset.image_source.lattice is lattice
    assert maps[0].effect.shape == (lattice.d,)
    assert "coords" not in lattice.__dict__
    assert np.array_equal(lattice.coords, written.coords)  # formed on the first read


def _toy_dataset(n=7, d=None, lattice=None, rng=None):
    rng = rng or np.random.default_rng(0)
    d = lattice.d
    images = rng.standard_normal((n, d)).astype(np.float32)
    exposures = np.column_stack([np.ones(n), rng.standard_normal(n)])
    controls = rng.standard_normal((n, 2))
    site_idx = rng.integers(3, size=n)
    sites = np.zeros((n, 3))
    sites[np.arange(n), site_idx] = 1.0
    return Dataset(images=images, exposures=exposures, controls=controls, sites=sites)


class TestVolumeBundle:
    def test_round_trip_bit_exact(self, tmp_path):
        mask = np.ones((3, 4, 2), dtype=bool)
        mask[0, 0, 0] = False
        lat = build_lattice((3, 4, 2), mask)
        values = np.random.default_rng(1).standard_normal((5, lat.d)).astype(np.float32)
        save_volume_map(values, lat, tmp_path / "vol")
        back, lat2 = load_volume_map(tmp_path / "vol")
        assert np.array_equal(back.astype(np.float32), values)
        assert np.array_equal(lat2.mask, lat.mask)

    def test_lattice_from_volume(self, tmp_path):
        mask = np.random.default_rng(2).random((4, 4, 4)) < 0.5
        mask[0, 0, 0] = True
        lat = build_lattice((4, 4, 4), mask)
        save_volume_map(np.zeros(lat.d), lat, tmp_path / "m")
        lat2 = lattice_from_volume(tmp_path / "m")
        assert lat2.dims == lat.dims
        assert np.array_equal(lat2.mask, lat.mask)

    def test_length_mismatch(self, tmp_path):
        lat = build_lattice((2, 2, 2))
        with pytest.raises(ValueError, match="does not match"):
            save_volume_map(np.zeros(lat.d - 1), lat, tmp_path / "bad")

    def test_payload_holds_the_masked_values_in_mask_order(self, tmp_path):
        mask = np.ones((2, 2, 1), dtype=bool)
        mask[0, 0, 0] = False
        lat = build_lattice((2, 2, 1), mask)
        values = np.arange(1, 2 * lat.d + 1, dtype=np.float64).reshape(2, lat.d)
        save_volume_map(values, lat, tmp_path / "z")
        assert read_kv(tmp_path / "z.hdr")["format"] == "volume-bundle-v2"
        raw = np.fromfile(tmp_path / "z.dat", dtype="<f4")
        assert np.array_equal(raw, values.ravel())  # nothing for the cell off the mask
        # a map expanded to the grid, as the README shows: NaN at the cell off the mask
        grid = np.full(lat.n_cells, np.nan, "<f4")
        grid[lat.flat_mask] = raw[:lat.d]
        assert np.isnan(grid[0]) and np.array_equal(grid[1:], values[0])

    def test_writer_stores_the_values_only_and_builds_no_grid(self, tmp_path):
        mask = np.random.default_rng(11).random((20, 20, 20)) < 0.5
        lat = build_lattice((20, 20, 20), mask)
        n = 6
        save_dataset(_toy_dataset(n, lattice=lat), lat, tmp_path / "img", tmp_path / "cov.csv")
        assert os.path.getsize(tmp_path / "img.dat") == n * lat.d * 4
        m = 10
        values = np.random.default_rng(12).standard_normal((m, lat.d)).astype(np.float32)
        tracemalloc.start()
        try:
            save_volume_map(values, lat, tmp_path / "maps")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * lat.n_cells * 4  # the bytes of the maps padded to the grid
        assert np.array_equal(load_volume_map(tmp_path / "maps", lat)[0], values)

    def test_malformed_header(self, tmp_path):
        lat = build_lattice((2, 2, 1))
        save_volume_map(np.zeros(lat.d), lat, tmp_path / "v")
        with open(tmp_path / "v.hdr", "a") as fh:
            fh.write("not a key value line\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_volume_map(tmp_path / "v")

    def test_a_mask_byte_other_than_0_and_1_names_the_file(self, tmp_path):
        mask = np.ones((3, 2, 2), dtype=bool)
        mask[0, 0, 0] = False
        lat = build_lattice((3, 2, 2), mask)
        save_volume_map(np.zeros(lat.d), lat, tmp_path / "v")
        raw = np.fromfile(tmp_path / "v.mask", dtype=np.uint8)
        raw[4] = 2
        raw.tofile(tmp_path / "v.mask")
        path = re.escape(os.path.join(str(tmp_path), "v.mask"))
        for read in (lattice_from_volume, load_volume_map):
            with pytest.raises(ValueError, match=f"{path}: mask byte 2 is neither 0 nor 1"):
                read(tmp_path / "v")

    def test_given_lattice_builds_no_second_lattice(self, tmp_path, monkeypatch):
        mask = np.zeros((4, 3, 2), dtype=bool)
        mask[1:, :2, :] = True
        lat = build_lattice((4, 3, 2), mask)
        values = np.arange(2 * lat.d, dtype=np.float32).reshape(2, lat.d)
        save_volume_map(values, lat, tmp_path / "v")
        built = []
        build = lattice_module.build_lattice
        monkeypatch.setattr(lattice_module, "build_lattice",
                            lambda *args: built.append(args) or build(*args))
        back, same = load_volume_map(tmp_path / "v", lat)
        assert built == []
        assert same is lat
        assert np.array_equal(back, values)
        other = build_lattice((4, 3, 2), np.roll(mask, 1, axis=0))
        with pytest.raises(ValueError, match="do not match the given lattice"):
            load_volume_map(tmp_path / "v", other)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        lat = build_lattice((3, 3, 3))
        ds = _toy_dataset(lattice=lat)
        save_dataset(ds, lat, tmp_path / "img", tmp_path / "cov.csv")
        ds2 = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)
        assert np.array_equal(ds2.images, ds.images)
        assert np.array_equal(ds2.exposures, ds.exposures)
        assert np.array_equal(ds2.controls, ds.controls)
        assert np.array_equal(ds2.sites, ds.sites)

    def test_round_trip_quoted_site_code_with_comma(self, tmp_path):
        lat = build_lattice((2, 2, 1))
        ds = _toy_dataset(lattice=lat)
        ds = Dataset(images=ds.images, exposures=ds.exposures, controls=ds.controls,
                     sites=ds.sites, ids=np.array([f"subj {i}, visit 1" for i in range(ds.n)]),
                     site_codes=np.array(["Boston, MA", "Paris", 'Rome "RM"']))
        save_dataset(ds, lat, tmp_path / "img", tmp_path / "cov.csv")
        assert '"Boston, MA"' in (tmp_path / "cov.csv").read_text()
        ds2 = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)
        assert list(ds2.site_codes) == list(ds.site_codes)
        assert list(ds2.ids) == list(ds.ids)
        assert np.array_equal(ds2.sites, ds.sites)
        assert np.array_equal(ds2.exposures, ds.exposures)
        assert np.array_equal(ds2.controls, ds.controls)

    def test_unquoted_comma_is_a_field_count_error(self, tmp_path):
        lat = build_lattice((2, 2, 1))
        save_volume_map(np.zeros((2, lat.d), dtype=np.float32), lat, tmp_path / "img")
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write('id,site,x_1\na,"North, 1",0.5\nb,North, 1,0.5\n')
        with pytest.raises(ValueError, match="row 2 has 4 fields, expected 3"):
            load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)

    def test_unparseable_value_names_record(self, tmp_path):
        lat = build_lattice((2, 2, 1))
        save_volume_map(np.zeros((2, lat.d), dtype=np.float32), lat, tmp_path / "img")
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write('id,site,x_1\na,"S, 1",0.5\nb,"S, 1",high\n')
        with pytest.raises(ValueError, match="unparseable value in record id='b'"):
            load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)

    def test_row_count_mismatch(self, tmp_path):
        lat = build_lattice((3, 3, 3))
        ds = _toy_dataset(lattice=lat)
        save_dataset(ds, lat, tmp_path / "img", tmp_path / "cov.csv")
        lines = open(tmp_path / "cov.csv").read().splitlines()
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="row count mismatch"):
            load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)

    def test_without_a_lattice_the_bundle_supplies_it(self, tmp_path):
        mask = np.random.default_rng(15).random((3, 4, 5)) < 0.6
        lat = build_lattice((3, 4, 5), mask)
        save_dataset(_toy_dataset(lattice=lat), lat, tmp_path / "img", tmp_path / "cov.csv")
        given = load_dataset(tmp_path / "img", tmp_path / "cov.csv",
                             lattice_from_volume(tmp_path / "img"))
        built = load_dataset(tmp_path / "img", tmp_path / "cov.csv")
        for name in ("images", "exposures", "controls", "sites", "ids", "site_codes"):
            assert np.array_equal(getattr(built, name), getattr(given, name))
        assert built.exposure_names == given.exposure_names
        assert built.control_names == given.control_names
        for field in ("dims", "mask", "coords"):
            assert np.array_equal(getattr(built.image_source.lattice, field),
                                  getattr(given.image_source.lattice, field))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_a_payload_of_the_wrong_size_raises_at_the_first_projection(self, tmp_path,
                                                                        extra):
        # the load does not open the payload; its first read sizes it
        lat = build_lattice((3, 3, 3))
        save_dataset(_toy_dataset(lattice=lat), lat, tmp_path / "img", tmp_path / "cov.csv")
        path = str(tmp_path / "img.dat")
        values = np.fromfile(path, dtype="<f4")
        np.resize(values, values.size + extra).tofile(path)
        loaded = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)
        basis = build_basis(lat, KernelParams(0.05, 1.0), 2)
        message = (f"{path}: payload size {values.size + extra} does not match "
                   f"count {loaded.n} x {lat.d} values")
        for _ in range(2):  # a failed read leaves no record, so it raises again
            with pytest.raises(ValueError, match=re.escape(message)):
                projected(loaded, basis)
            assert loaded.projections == {}

    def test_site_columns_sorted_by_value(self, tmp_path):
        lat = build_lattice((2, 2, 1))
        n = 5
        images = np.zeros((n, lat.d), dtype=np.float32)
        save_volume_map(images, lat, tmp_path / "img")
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write("id,site,x_1,z_1\n")
            for i, site in enumerate([7, 1, 3, 7, 1]):
                fh.write(f"s{i},{site},0.5,1.5\n")
        ds = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)
        assert ds.n_sites == 3
        assert [float(c) for c in ds.site_codes] == [1.0, 3.0, 7.0]
        assert np.argmax(ds.sites[0]) == 2  # site 7 -> last column

    def test_equal_valued_site_codes_keep_one_order_across_hash_seeds(self, tmp_path):
        # "01" and "1" tie on value; set iteration order follows string hashing
        lat = build_lattice((2, 2, 1))
        save_volume_map(np.zeros((3, lat.d), dtype=np.float32), lat, tmp_path / "img")
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write("id,site\na,01\nb,1\nc,2\n")
        code = ("import lasir; lat = lasir.lattice_from_volume('img'); "
                "print(lasir.load_dataset('img', 'cov.csv', lat).site_codes.tolist())")
        src = os.path.dirname(os.path.dirname(lasir.__file__))
        orders = set()
        for hash_seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            orders.add(proc.stdout.strip())
        assert orders == {"['01', '1', '2']"}

    def test_non_finite_covariate_names_record(self, tmp_path):
        lat = build_lattice((2, 2, 1))
        save_volume_map(np.zeros((2, lat.d), dtype=np.float32), lat, tmp_path / "img")
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write("id,site,x_1\nok,1,0.5\nbad,1,nan\n")
        with pytest.raises(ValueError, match="non-finite covariate.*bad"):
            load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)

    def test_non_finite_image_names_individual(self, tmp_path):
        lat = build_lattice((2, 2, 1))
        images = np.zeros((2, lat.d), dtype=np.float32)
        images[1, 2] = np.nan
        save_volume_map(images, lat, tmp_path / "img")
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write("id,site,x_1\na,1,0.1\nb,1,0.2\n")
        loaded = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)  # reads no image
        with pytest.raises(ValueError, match="individual index 1"):
            loaded.images


    def test_chunked_reads_match_and_name_the_individual(self, tmp_path, monkeypatch):
        # chunks of one or two images: the masked read and the non-finite
        # check must not depend on where the chunks fall
        mask = np.random.default_rng(4).random((3, 4, 5)) < 0.6
        lat = build_lattice((3, 4, 5), mask)
        images = np.random.default_rng(5).standard_normal((5, lat.d)).astype(np.float32)
        save_volume_map(images, lat, tmp_path / "img")
        for chunk in (lat.d, 2 * lat.d):
            monkeypatch.setattr("lasir.lattice.CHUNK", chunk)
            assert np.array_equal(load_volume_map(tmp_path / "img")[0], images)
        images[3, 7] = np.inf
        save_volume_map(images, lat, tmp_path / "img")
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write("id,site\n" + "".join(f"i{i},1\n" for i in range(5)))
        monkeypatch.setattr("lasir.lattice.CHUNK", 2 * lat.d)
        with pytest.raises(ValueError, match="individual index 3"):
            load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat).images


    def test_threaded_read_names_the_first_bad_individual(self, tmp_path, monkeypatch,
                                                          allow_cpus):
        # 12 one-row chunks dealt to two threads: the first takes rows 0, 2,
        # ..., 10, the second 1, 3, ..., 11, so the later part holds the lower
        # bad row; the read must name it, as a serial read does
        mask = np.random.default_rng(8).random((3, 4, 5)) < 0.6
        lat = build_lattice((3, 4, 5), mask)
        n = 12
        monkeypatch.setattr(lasir._blas, "PARALLEL_VALUES", n * lat.d)
        save_dataset(_toy_dataset(n, lattice=lat), lat, tmp_path / "img", tmp_path / "cov.csv")
        monkeypatch.setattr(lattice_module, "CHUNK", lat.d)
        images = np.random.default_rng(9).standard_normal((n, lat.d)).astype(np.float32)
        save_volume_map(images, lat, tmp_path / "img")
        pools = allow_cpus(1)
        serial = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat).images
        assert pools == [] and np.array_equal(serial.view(np.uint32), images.view(np.uint32))
        for count in (2, 3):
            pools = allow_cpus(count)
            threaded = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat).images
            assert np.array_equal(threaded.view(np.uint32), serial.view(np.uint32))
            assert pools == [count]
        images[10, 0] = np.nan
        images[3, -1] = -np.inf
        save_volume_map(images, lat, tmp_path / "img")
        for count in (1, 2, 3):
            allow_cpus(count)
            with pytest.raises(ValueError, match="individual index 3$"):
                load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat).images

    @pytest.mark.parametrize("bad", [None, 4])
    def test_non_finite_check_reads_gathered_cells_only(self, tmp_path, monkeypatch, bad):
        # chunks of 2, 2 and 1 maps: a NaN in the last row of the ragged final
        # chunk names that row; the payload holds the masked values only, so
        # the check reads exactly them (a v1 payload's off-mask NaN: below)
        mask = np.random.default_rng(6).random((3, 4, 5)) < 0.6
        lat = build_lattice((3, 4, 5), mask)
        images = np.random.default_rng(7).standard_normal((5, lat.d)).astype(np.float32)
        if bad is not None:
            images[bad, -1] = np.nan
        save_dataset(_toy_dataset(5, lattice=lat), lat, tmp_path / "img", tmp_path / "cov.csv")
        save_volume_map(images, lat, tmp_path / "img")
        raw = np.fromfile(tmp_path / "img.dat", dtype="<f4").reshape(5, lat.d)
        assert np.array_equal(raw, images, equal_nan=True)
        monkeypatch.setattr(lattice_module, "CHUNK", 2 * lat.d + 1)
        if bad is None:
            ds = load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)
            assert np.array_equal(ds.images, images)
        else:
            with pytest.raises(ValueError, match=f"individual index {bad}$"):
                load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat).images
        # the volume itself loads as stored, NaN included
        assert np.array_equal(load_volume_map(tmp_path / "img", lat)[0], images, equal_nan=True)


def _save_v1(values, lat, base):
    """`values` (count, d) written as a bundle of the earlier format
    "volume-bundle-v1": whole grid rows, NaN off the mask."""
    save_volume_map(values, lat, base)
    grid = np.full((len(values), lat.n_cells), np.nan, dtype="<f4")
    grid[:, lat.flat_mask] = values
    grid.tofile(f"{base}.dat")
    header = read_kv(f"{base}.hdr")
    header["format"] = "volume-bundle-v1"
    write_kv(f"{base}.hdr", header)


class TestPaddedBundle:
    """A "volume-bundle-v1" bundle still loads, through the one branch of
    `VolumePayload.stream` that reads whole grid rows."""

    @staticmethod
    def _saved(tmp_path, images, lat):
        n = len(images)
        with open(tmp_path / "cov.csv", "w") as fh:
            fh.write("id,site\n" + "".join(f"i{i},1\n" for i in range(n)))
        save_volume_map(images, lat, tmp_path / "v2")
        _save_v1(images, lat, tmp_path / "v1")
        raw = np.fromfile(tmp_path / "v1.dat", dtype="<f4").reshape(n, lat.n_cells)
        assert np.isnan(raw[:, ~lat.flat_mask]).all()

    @pytest.mark.parametrize("rows", [1, 2, None])
    def test_loads_bit_identical_to_v2(self, tmp_path, monkeypatch, allow_cpus, rows):
        # off-mask NaN in every row of the v1 payload never fails a load
        mask = np.random.default_rng(10).random((4, 5, 6)) < 0.6
        lat = build_lattice((4, 5, 6), mask)
        n = 17
        monkeypatch.setattr(lasir._blas, "PARALLEL_VALUES", n * lat.d)
        images = np.random.default_rng(11).standard_normal((n, lat.d)).astype(np.float32)
        self._saved(tmp_path, images, lat)
        basis = build_basis(lat, KernelParams(0.05, 1.0), 2)
        step = rows or n  # rows per chunk of every read
        monkeypatch.setattr(lattice_module, "CHUNK", step * lat.d)
        monkeypatch.setattr(projection_module, "IMAGE_CHUNK", step * lat.d)
        monkeypatch.setattr(projection_module, "CHUNK", step * projection_module._row_floats(basis))
        assert projection_module._rows(basis) == step
        for count in (1, 2):
            allow_cpus(count)
            v1, v2 = (load_dataset(tmp_path / name, tmp_path / "cov.csv", lat)
                      for name in ("v1", "v2"))
            assert (v1.image_source.width, v2.image_source.width) == (lat.n_cells, lat.d)
            assert np.array_equal(v1.images.view(np.uint32), images.view(np.uint32))
            assert np.array_equal(load_volume_map(tmp_path / "v1", lat)[0], images)
            got, want = (projected(ds, basis) for ds in (v1, v2))
            assert np.array_equal(got.ytilde.view(np.uint64), want.ytilde.view(np.uint64))
            assert np.array_equal(got.sq_norms.view(np.uint64), want.sq_norms.view(np.uint64))

    def test_a_non_finite_masked_value_names_the_first_bad_individual(
            self, tmp_path, monkeypatch, allow_cpus):
        # 12 one-row chunks dealt to threads; the part holding the lower bad
        # row (3) may finish after the one holding the higher (10)
        monkeypatch.setattr(lasir._blas, "PARALLEL_VALUES", 0)
        mask = np.random.default_rng(12).random((3, 4, 5)) < 0.6
        lat = build_lattice((3, 4, 5), mask)
        images = np.random.default_rng(13).standard_normal((12, lat.d)).astype(np.float32)
        images[10, 0], images[3, -1] = np.nan, -np.inf
        self._saved(tmp_path, images, lat)
        monkeypatch.setattr(lattice_module, "CHUNK", lat.d)
        for count in (1, 2, 3):
            allow_cpus(count)
            with pytest.raises(ValueError, match="individual index 3$"):
                load_dataset(tmp_path / "v1", tmp_path / "cov.csv", lat).images

    def test_a_short_payload_names_the_file(self, tmp_path, monkeypatch):
        lat = build_lattice((3, 4, 5), np.random.default_rng(14).random((3, 4, 5)) < 0.6)
        self._saved(tmp_path, np.zeros((3, lat.d), dtype=np.float32), lat)
        path = str(tmp_path / "v1.dat")
        with open(path, "r+b") as fh:
            fh.truncate(4 * (3 * lat.n_cells - 1))
        with pytest.raises(ValueError, match=re.escape(path)):
            load_volume_map(tmp_path / "v1", lat)
        # a payload that ends early while being read still names the file
        monkeypatch.setattr(lattice_module.os.path, "getsize", lambda _: 4 * 3 * lat.n_cells)
        with pytest.raises(ValueError, match=re.escape(path) + ": payload ends before map"):
            load_volume_map(tmp_path / "v1", lat)


class TestDatasetInvariants:
    def test_sites_must_be_one_hot(self):
        lat = build_lattice((2, 2, 1))
        ds = _toy_dataset(lattice=lat)
        bad_sites = ds.sites.copy()
        bad_sites[0] = 0.0
        with pytest.raises(ValueError, match="one-hot"):
            Dataset(images=ds.images, exposures=ds.exposures,
                    controls=ds.controls, sites=bad_sites)

    def test_intercept_column_required(self):
        lat = build_lattice((2, 2, 1))
        ds = _toy_dataset(lattice=lat)
        bad = ds.exposures.copy()
        bad[0, 0] = 0.0
        with pytest.raises(ValueError, match="column 0"):
            Dataset(images=ds.images, exposures=bad,
                    controls=ds.controls, sites=ds.sites)

    def test_row_counts_must_agree(self):
        lat = build_lattice((2, 2, 1))
        ds = _toy_dataset(lattice=lat)
        with pytest.raises(ValueError, match="row count mismatch"):
            Dataset(images=ds.images, exposures=ds.exposures[:-1],
                    controls=ds.controls, sites=ds.sites)


@given(data=st.data())
def test_volume_round_trip_in_small_chunks(data):
    # chunks of 1-4 maps, so the last one is often ragged and the read buffer
    # is reused across chunks of different lengths
    dims = tuple(data.draw(st.lists(st.integers(1, 7), min_size=3, max_size=3)))
    mask = data.draw(arrays(bool, dims))
    mask[tuple(data.draw(st.integers(0, m - 1)) for m in dims)] = True
    lat = build_lattice(dims, mask)
    count = data.draw(st.integers(1, 9))
    values = data.draw(arrays(np.float32, (count, lat.d), elements=st.floats(width=32)))
    step = data.draw(st.integers(1, 4))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice_module, "CHUNK", step * lat.d + data.draw(st.integers(0, 3)))
        base = os.path.join(tmp, "vol")
        save_volume_map(values, lat, base)
        back, same = load_volume_map(base, lat)
        assert same is lat and back.dtype == np.float32
        assert np.array_equal(back.view(np.uint32), values.view(np.uint32))
        assert os.path.getsize(base + ".dat") == 4 * count * lat.d
        cut = data.draw(st.integers(1, 4 * count * lat.d))
        with open(base + ".dat", "r+b") as fh:
            fh.truncate(4 * count * lat.d - cut)
        named = re.escape(base + ".dat")
        with pytest.raises(ValueError, match=named):
            load_volume_map(base, lat)
        # a payload that ends early while being read still names the file
        mp.setattr(lattice_module.os.path, "getsize", lambda path: 4 * count * lat.d)
        with pytest.raises(ValueError, match=named):
            load_volume_map(base, lat)


def _reads_as_nan(text):
    try:
        return np.isnan(float(text))
    except ValueError:
        return False


# text with commas and quotes but no outer whitespace, which the reader strips
_field_text = st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1,
                      max_size=8).filter(lambda t: t == t.strip())
# a code reading as NaN has no place in the value order
_site_code = st.one_of(
    st.integers(-30, 30).map(str), st.integers(0, 30).map("0{}".format),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _field_text.filter(lambda t: not _reads_as_nan(t)))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_covariate_table_round_trip(data):
    n = data.draw(st.integers(1, 20))
    p, q = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    codes = data.draw(st.lists(_site_code, min_size=1, max_size=5, unique=True))
    site_idx = np.array(data.draw(st.lists(st.integers(0, len(codes) - 1),
                                           min_size=n, max_size=n)))
    ids = data.draw(st.lists(_field_text, min_size=n, max_size=n))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    exposures = np.column_stack([np.ones(n), data.draw(arrays(np.float64, (n, p),
                                                              elements=finite))])
    controls = data.draw(arrays(np.float64, (n, q), elements=finite))
    sites = np.zeros((n, len(codes)))
    sites[np.arange(n), site_idx] = 1.0
    lat = build_lattice((2, 2, 1))
    ds = Dataset(images=np.zeros((n, lat.d), dtype=np.float32), exposures=exposures,
                 controls=controls, sites=sites, ids=np.array(ids, dtype=object),
                 site_codes=np.array(codes, dtype=object))
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, lat, os.path.join(tmp, "img"), os.path.join(tmp, "cov.csv"))
        back = load_dataset(os.path.join(tmp, "img"), os.path.join(tmp, "cov.csv"), lat)
    assert back.exposures.view(np.uint64).tolist() == exposures.view(np.uint64).tolist()
    assert back.controls.view(np.uint64).tolist() == controls.view(np.uint64).tolist()
    assert list(back.ids) == ids
    used = {codes[i] for i in site_idx}
    try:  # documented order: by value, equal values in text order; else text order
        expected = sorted(used, key=lambda c: (float(c), c))
    except ValueError:
        expected = sorted(used)
    assert list(back.site_codes) == expected
    assert [back.site_codes[j] for j in back.sites.argmax(axis=1)] == [codes[i] for i in site_idx]
