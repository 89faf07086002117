import os
import tempfile
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lasir import (KernelParams, SemConfig, SimConfig, build_basis, build_lattice, fit_sem,
                   project, simulate_cube)
from lasir.bundles import (load_basis, load_fit, load_truth, save_basis,
                           save_fit, save_truth)
from lasir.io import config_hash, read_kv, read_matrix_bundle, write_kv, write_matrix_bundle


class TestKeyValue:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "conf"
        write_kv(path, {"alpha": "0.05", "dims": "5 5 5"})
        assert dict(read_kv(path)) == {"alpha": "0.05", "dims": "5 5 5"}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("# comment\n\nkey: value\n")
        assert dict(read_kv(path)) == {"key": "value"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("no separator here\n")
        with pytest.raises(ValueError, match="malformed header line 1"):
            read_kv(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("a: 1\na: 2\n")
        with pytest.raises(ValueError, match="duplicate key"):
            read_kv(path)

    def test_config_hash_stable_under_ordering(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestMatrixBundle:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = {"one": rng.standard_normal((4, 3)), "vec": rng.standard_normal(5)}
        write_matrix_bundle(tmp_path / "b", mats, meta={"kind": "test", "n": 7})
        back, meta = read_matrix_bundle(tmp_path / "b")
        assert np.array_equal(back["one"], mats["one"])
        assert np.array_equal(back["vec"].ravel(), mats["vec"])
        assert meta == {"kind": "test", "n": "7"}

    def test_truncated_payload_detected(self, tmp_path):
        write_matrix_bundle(tmp_path / "b", {"m": np.ones((3, 3))})
        data = (tmp_path / "b.dat").read_bytes()
        (tmp_path / "b.dat").write_bytes(data[:-16])
        with pytest.raises(ValueError, match="past payload end"):
            read_matrix_bundle(tmp_path / "b")

    def test_failed_write_keeps_the_old_bundle(self, tmp_path):
        old = np.arange(9.0).reshape(3, 3)
        write_matrix_bundle(tmp_path / "b", {"m": old}, meta={"kind": "old"})
        with pytest.raises(ValueError, match="matrix 'bad' must be 1-D or 2-D"):
            write_matrix_bundle(tmp_path / "b", {"a": np.ones((2, 2)),
                                                 "bad": np.ones((2, 2, 2))})
        back, meta = read_matrix_bundle(tmp_path / "b")
        assert list(back) == ["m"] and np.array_equal(back["m"], old)
        assert meta == {"kind": "old"}
        assert sorted(os.listdir(tmp_path)) == ["b.dat", "b.hdr"]

    def test_a_c_ordered_matrix_is_written_without_a_copy(self, tmp_path):
        big = np.random.default_rng(1).standard_normal((2500, 2500))  # 50 MB
        tracemalloc.start()
        try:
            write_matrix_bundle(tmp_path / "b", {"big": big})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes // 10
        back, _ = read_matrix_bundle(tmp_path / "b")
        assert np.array_equal(back["big"], big)

    def test_a_matrix_in_other_orders_is_written_as_c_order(self, tmp_path):
        m = np.arange(12.0).reshape(3, 4)
        write_matrix_bundle(tmp_path / "b", {"f": np.asfortranarray(m), "t": m.T,
                                             "s": m[:, ::2], "be": m.astype(">f8")})
        back, _ = read_matrix_bundle(tmp_path / "b")
        for name, want in (("f", m), ("t", m.T), ("s", m[:, ::2]), ("be", m)):
            assert np.array_equal(back[name], want)

    def test_writes_to_a_loaded_matrix_leave_the_file_unchanged(self, tmp_path):
        write_matrix_bundle(tmp_path / "b", {"m": np.zeros((2, 3))})
        before = (tmp_path / "b.dat").read_bytes()
        back, _ = read_matrix_bundle(tmp_path / "b")
        assert type(back["m"]) is np.ndarray and back["m"].dtype == np.dtype("<f8")
        back["m"][1] = 7.0
        assert np.array_equal(back["m"], [[0.0, 0.0, 0.0], [7.0, 7.0, 7.0]])
        assert (tmp_path / "b.dat").read_bytes() == before
        again, _ = read_matrix_bundle(tmp_path / "b")
        assert not again["m"].any()

    def test_rewriting_a_loaded_bundle_leaves_the_loaded_values(self, tmp_path):
        # several pages, none touched before the rewrite, over a shorter payload
        first = {"m": np.arange(3000.0).reshape(3, 1000), "v": -np.ones(5)}
        write_matrix_bundle(tmp_path / "b", first)
        loaded, _ = read_matrix_bundle(tmp_path / "b")
        write_matrix_bundle(tmp_path / "b", {"x": np.full((1, 1), 5.0)})
        assert np.array_equal(loaded["m"], first["m"])
        assert np.array_equal(loaded["v"].ravel(), first["v"])
        again, _ = read_matrix_bundle(tmp_path / "b")
        assert list(again) == ["x"] and again["x"].tolist() == [[5.0]]

    def test_dropping_the_matrices_closes_the_payload(self, tmp_path):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to list open descriptors")
        write_matrix_bundle(tmp_path / "b", {"m": np.ones((2, 2)), "v": np.ones(3)})
        dat = os.path.realpath(tmp_path / "b.dat")

        def open_on_payload():
            count = 0
            for fd in os.listdir("/proc/self/fd"):
                try:
                    count += os.readlink(f"/proc/self/fd/{fd}") == dat
                except OSError:  # the descriptor listdir itself used
                    pass
            return count

        mats, _ = read_matrix_bundle(tmp_path / "b")
        m = mats["m"]
        del mats
        assert open_on_payload() == 1  # the map's, held while one matrix is alive
        del m
        assert open_on_payload() == 0

    def test_bundle_of_empty_matrices_loads(self, tmp_path):
        write_matrix_bundle(tmp_path / "b", {"a": np.zeros((0, 3)), "b": np.zeros(0)})
        assert (tmp_path / "b.dat").stat().st_size == 0
        back, _ = read_matrix_bundle(tmp_path / "b")
        assert [m.shape for m in back.values()] == [(0, 3), (0, 1)]

    def test_offset_not_a_multiple_of_8_loads(self, tmp_path):
        values = np.arange(6.0).reshape(2, 3)
        (tmp_path / "b.dat").write_bytes(b"abc" + values.astype("<f8").tobytes())
        write_kv(tmp_path / "b.hdr", [("format", "matrix-bundle-v1"), ("payload", "b.dat"),
                                      ("dtype", "float64-le"), ("matrix", "m 2 3 3")])
        back, _ = read_matrix_bundle(tmp_path / "b")
        assert np.array_equal(back["m"], values)

    def test_negative_shape_is_a_malformed_record(self, tmp_path):
        write_matrix_bundle(tmp_path / "b", {"m": np.ones((2, 3))})
        write_kv(tmp_path / "b.hdr", [("format", "matrix-bundle-v1"), ("payload", "b.dat"),
                                      ("dtype", "float64-le"), ("matrix", "m -1 3 0")])
        with pytest.raises(ValueError, match="malformed matrix record 'm -1 3 0'"):
            read_matrix_bundle(tmp_path / "b")

    def test_wrong_format_line(self, tmp_path):
        write_kv(tmp_path / "b.hdr", {"format": "something-else"})
        with pytest.raises(ValueError, match="expected format"):
            read_matrix_bundle(tmp_path / "b")


_identifier = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_matrix_bundle_round_trip(data):
    names = data.draw(st.lists(_identifier, min_size=1, max_size=4, unique=True))
    shapes = st.one_of(st.tuples(st.integers(0, 5)),
                       st.tuples(st.integers(0, 5), st.integers(1, 5)))
    bits = {name: data.draw(arrays(np.uint64, data.draw(shapes))) for name in names}
    meta = data.draw(st.dictionaries(_identifier, st.one_of(
        st.integers(), st.floats(), _identifier), max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "b")
        write_matrix_bundle(prefix, {k: v.view(np.float64) for k, v in bits.items()}, meta)
        back, back_meta = read_matrix_bundle(prefix)
        assert list(back) == names
        for name, value in bits.items():
            column = value.reshape(-1, 1) if value.ndim == 1 else value
            assert back[name].dtype == np.float64
            assert back[name].shape == column.shape
            assert np.array_equal(back[name].view(np.uint64), column)
        assert back_meta == {k: str(v) for k, v in meta.items()}
        size = os.path.getsize(prefix + ".dat")
        if size:
            cut = data.draw(st.integers(1, size))
            with open(prefix + ".dat", "r+b") as fh:
                fh.truncate(size - cut)
            with pytest.raises(ValueError, match="extends past payload end"):
                read_matrix_bundle(prefix)


@pytest.fixture(scope="module")
def sim():
    cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=2, sigma=1.0, seed=2, n_sites=3)
    return simulate_cube(cfg)


class TestBundles:
    def test_basis_round_trip(self, tmp_path, sim):
        _, _, lattice, basis = sim
        save_basis(basis, tmp_path / "basis")
        back = load_basis(tmp_path / "basis")
        assert np.array_equal(back.psi, basis.psi)
        assert np.array_equal(back.eigvals, basis.eigvals)
        assert back.h == basis.h
        assert back.params.b == basis.params.b

    def test_masked_basis_round_trip_is_version_2(self, tmp_path):
        mask = np.random.default_rng(5).random((6, 7, 5)) < 0.7
        basis = build_basis(build_lattice((6, 7, 5), mask), KernelParams(0.01, 2.0), 3)
        save_basis(basis, tmp_path / "basis")
        _, meta = read_matrix_bundle(tmp_path / "basis")
        assert meta["version"] == "2" and meta["dims"] == "6 7 5"
        assert (tmp_path / "basis.mask").stat().st_size == mask.size
        back = load_basis(tmp_path / "basis")
        assert np.array_equal(back.mask, mask)
        assert np.array_equal(back.T, basis.T)
        assert back.psi.tobytes() == basis.psi.tobytes()

    def test_version_1_bundle_loads_and_round_trips(self, tmp_path, sim):
        # the layout written before factored bases: psi and eigvals only
        dataset, _, _, basis = sim
        psi = basis.psi
        write_matrix_bundle(tmp_path / "v1", OrderedDict(psi=psi, eigvals=basis.eigvals),
                            meta={"kind": "basis", "a": basis.params.a, "b": basis.params.b,
                                  "h": basis.h, "L": basis.L, "d": basis.d})
        v1 = load_basis(tmp_path / "v1")
        assert v1.factors is None
        assert v1.psi.tobytes() == psi.tobytes()
        save_basis(v1, tmp_path / "again")
        again = load_basis(tmp_path / "again")
        assert again.psi.tobytes() == psi.tobytes()
        assert np.array_equal(again.eigvals, basis.eigvals)
        dense, factored = project(dataset.images, v1), project(dataset.images, basis)
        assert np.abs(dense - factored).max() <= 1e-12 * np.abs(dense).max()

    def test_fit_round_trip(self, tmp_path, sim):
        dataset, truth, lattice, basis = sim
        fit = fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=4))
        save_fit(fit, tmp_path / "fit")
        back = load_fit(tmp_path / "fit")
        assert np.array_equal(back.labels, fit.labels)
        assert np.array_equal(back.params.theta_alpha, fit.params.theta_alpha)
        assert np.array_equal(back.params.w, fit.params.w)
        assert np.array_equal(back.q_trace, fit.q_trace)
        assert back.converged == fit.converged
        assert back.method == fit.method

    def test_truth_round_trip(self, tmp_path, sim):
        dataset, truth, lattice, basis = sim
        save_truth(truth, tmp_path / "truth")
        back = load_truth(tmp_path / "truth")
        assert np.array_equal(back.labels, truth.labels)
        assert np.array_equal(back.alpha, truth.alpha)
        assert np.array_equal(back.gating, truth.gating)

    def test_kind_checked(self, tmp_path, sim):
        dataset, truth, lattice, basis = sim
        save_truth(truth, tmp_path / "truth")
        with pytest.raises(ValueError, match="not a fit bundle"):
            load_fit(tmp_path / "truth")
