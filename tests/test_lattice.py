import numpy as np
import pytest

from lasir import (Dataset, build_lattice, lattice_from_volume, load_dataset,
                   load_volume_map, save_dataset, save_volume_map)


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

    def test_masked_cells_are_nan(self, tmp_path):
        mask = np.ones((2, 2, 1), dtype=bool)
        mask[0, 0, 0] = False
        lat = build_lattice((2, 2, 1), mask)
        save_volume_map(np.zeros(lat.d), lat, tmp_path / "z")
        raw = np.fromfile(tmp_path / "z.dat", dtype="<f4")
        assert np.isnan(raw[0])
        assert np.all(raw[1:] == 0.0)

    def test_malformed_header(self, tmp_path):
        lat = build_lattice((2, 2, 1))
        save_volume_map(np.zeros(lat.d), lat, tmp_path / "v")
        with open(tmp_path / "v.hdr", "a") as fh:
            fh.write("not a key value line\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_volume_map(tmp_path / "v")


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
        with pytest.raises(ValueError, match="individual index 1"):
            load_dataset(tmp_path / "img", tmp_path / "cov.csv", lat)


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
