"""Memory contracts of the chunked passes, on a mid-size masked lattice.

Each test measures one pass's peak under `tracemalloc`, which counts every
numpy array the pass allocates, on every thread, and bounds it by the
formula its docstring gives. The lattice is a 40^3 ellipsoid (21,376
voxels on a 36 x 36 x 34 grid of planes) with a degree-12 basis (L=455), n=60,
built with the part budget `projection.CHUNK` at two planes of that grid, so
that its layout, cut to half the budget, cuts 34 one-plane slabs, each
cropped to its disc (27,320 box cells in all, against 44,064 in the grid).
"""

import tracemalloc

import numpy as np
import pytest

from lasir import (Dataset, KernelParams, build_basis, build_lattice, load_dataset,
                   save_dataset)
from lasir import _blas, projection
from lasir.inference import _variance_field
from lasir.projection import backproject, project, projected

N = 60
READ = 5 << 18  # bytes of a read buffer and its finite mask (`lattice.CHUNK` values)
SLACK = 160 << 10  # bytes: index arrays, small temporaries and interpreter objects


@pytest.fixture(scope="module")
def case():
    dims = (40, 40, 40)
    grids = np.meshgrid(*(np.linspace(-1.0, 1.0, m) for m in dims), indexing="ij")
    lattice = build_lattice(dims, sum((g / r) ** 2 for g, r in zip(grids, (0.9, 0.9, 0.85)))
                            <= 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "CHUNK", 2 * 36 * 36)
        basis = build_basis(lattice, KernelParams(0.01, 2.0), 12)
    assert len(basis.layout.slabs) == 34
    images = np.random.default_rng(40).standard_normal((N, lattice.d)).astype(np.float32)
    return lattice, basis, images


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_projection_holds_its_parts_budget(case, allow_cpus):
    """`project` holds at most one part's buffers per part, 8 bytes x rows
    per chunk x `projection._row_floats` (a row's slab boxes and their
    x-contractions, and its y- and z-contractions), plus the n x L
    coefficients, which it fills as it goes, plus `SLACK`; then, its parts
    freed, the coefficients twice (in tensor order and returned). Two CPUs
    are allowed: the pass has one part below `_blas.PARALLEL_VALUES` image
    values and two from there on. (At this shape a row takes 47,171
    float64s, so a part holds two rows, 755 KB, and the pass peaks at
    1,062,905 bytes against a bound of 1,136,976. A part holding the whole
    (z, y) grid of x-contractions instead of each slab's own, as before,
    peaked at 1,142,521, over the bound.)"""
    lattice, basis, images = case
    allow_cpus(2)
    rows = projection._rows(basis)
    parts = 2 if N * lattice.d >= _blas.PARALLEL_VALUES and N > rows else 1
    part = 8 * rows * projection._row_floats(basis)
    peak = _peak(lambda: project(images, basis))
    assert peak <= max(parts * part + N * basis.L * 8, 2 * N * basis.L * 8) + SLACK


def test_backprojection_holds_one_slab_box_per_chunk(case):
    """`backproject` holds the n x d maps it returns and the n x L
    coefficients in tensor order, plus, per chunk of `projection._rows`
    maps, the z-contraction's input cube (H^3 a map, H = h+1), the
    z-contraction over the whole grid (m_z H^2) and one slab's y-contraction
    and box, at most the largest of each, plus one box's worth of gathered
    voxels, plus `SLACK`. (A full plane grid per chunk, as before slabs,
    took 705 KB more; a y-contraction over the whole grid, as before, took
    167 KB more and broke the bound.)"""
    _, basis, _ = case
    layout = basis.layout
    H = basis.h + 1
    box = max(slab.inside.size for slab in layout.slabs)
    block = max(slab.shape[0] * slab.shape[1] * H for slab in layout.slabs)
    mz = layout.factors[2].shape[0]
    part = projection._rows(basis) * (H ** 3 + mz * H * H + block + box)
    coefs = np.random.default_rng(42).standard_normal((N, basis.L))
    peak = _peak(lambda: backproject(coefs, basis))
    assert peak <= 8 * (N * (basis.d + basis.L) + part + box) + SLACK


def test_load_reads_the_mask_and_the_covariates_only(case, tmp_path):
    """`load_dataset` of a volume bundle, given its lattice, holds its mask
    twice, one byte a grid cell (the mask file read and its comparison with
    the lattice's mask), plus the covariate arrays of the dataset it returns
    (exposures, controls, site one-hots, ids and site codes), plus `SLACK`
    for the header, the table's text and the payload's handle. (It peaks at
    140 KB here; reading `Dataset.images` during the load, an n x d float32
    array, took 6.4 MB.)"""
    lattice, _, images = case
    rng = np.random.default_rng(43)
    save_dataset(Dataset(images=images, exposures=np.column_stack([np.ones(N), rng.random(N)]),
                         controls=rng.random((N, 2)), sites=np.eye(3)[rng.integers(3, size=N)]),
                 lattice, tmp_path / "img", tmp_path / "img.csv")
    loaded = []
    peak = _peak(lambda: loaded.append(load_dataset(tmp_path / "img", tmp_path / "img.csv",
                                                    lattice)))
    data = loaded[0]
    arrays = (data.exposures, data.controls, data.sites, data.ids, data.site_codes)
    assert peak <= 2 * lattice.n_cells + sum(a.nbytes for a in arrays) + SLACK


def test_squared_norms_hold_one_read_buffer_and_its_mask(case, tmp_path):
    """The first `sq_norms` of a loaded dataset's record streams its payload
    through one float32 read buffer and its finite mask, `READ` bytes at
    most (the pass streams fewer than `_blas.PARALLEL_VALUES` values, so one
    part), plus one image row squared in float64 and the n norms, plus
    `SLACK`. (The earlier chunk of 2^22 values took all 60 images at once,
    6.4 MB.)"""
    lattice, basis, images = case
    save_dataset(Dataset(images=images, exposures=np.ones((N, 1)), controls=np.zeros((N, 0)),
                         sites=np.ones((N, 1))),
                 lattice, tmp_path / "img", tmp_path / "img.csv")
    record = projected(load_dataset(tmp_path / "img", tmp_path / "img.csv", lattice), basis)
    assert N * lattice.d < _blas.PARALLEL_VALUES
    peak = _peak(lambda: record.sq_norms)
    assert np.array_equal(record.sq_norms, [np.square(r, dtype=np.float64).sum() for r in images])
    assert peak <= READ + lattice.d * 8 + N * 8 + SLACK


def test_variance_field_never_holds_the_spread_covariance(case):
    """`_variance_field` stays below the dense spread covariance of its
    shape, n x n x H x H float64s with n = H (H+1) / 2 (11.2 MB here), which
    the earlier field formed whole, and with it its x-contraction cube."""
    _, basis, _ = case
    H = basis.h + 1
    n = H * (H + 1) // 2
    lam = np.random.default_rng(41).random(basis.L) + 0.1
    peak = _peak(lambda: _variance_field(basis, lam))
    assert peak < n * n * H * H * 8
