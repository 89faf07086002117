"""Memory contracts of the chunked passes, on a mid-size masked lattice.

Each test measures one pass's peak under `tracemalloc`, which counts every
numpy array the pass allocates, on every thread, and bounds it by the
formula its docstring gives. The lattice is a 40^3 ellipsoid (21,376
voxels on a 36 x 36 x 34 grid of planes) with a degree-12 basis (L=455), n=60.
"""

import tracemalloc

import numpy as np
import pytest

from lasir import (Dataset, KernelParams, build_basis, build_lattice, load_dataset,
                   save_dataset)
from lasir import _blas, projection
from lasir.inference import _variance_field
from lasir.projection import project, projected

N = 60
PART = 1 << 20  # bytes of a projection part's four buffers (`projection.CHUNK` float64s)
READ = 5 << 18  # bytes of a read buffer and its finite mask (`lattice.CHUNK` values)
SLACK = 256 << 10  # bytes: index arrays, small temporaries and interpreter objects


@pytest.fixture(scope="module")
def case():
    dims = (40, 40, 40)
    grids = np.meshgrid(*(np.linspace(-1.0, 1.0, m) for m in dims), indexing="ij")
    lattice = build_lattice(dims, sum((g / r) ** 2 for g, r in zip(grids, (0.9, 0.9, 0.85)))
                            <= 1.0)
    basis = build_basis(lattice, KernelParams(0.01, 2.0), 12)
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
    """`project` holds at most `PART` bytes per part, plus the n x L
    coefficients twice (the rows in tensor order and the returned ones),
    plus `SLACK`. Two CPUs are allowed: the pass has one part below
    `_blas.PARALLEL_VALUES` image values and two from there on. (At this shape a
    row takes 67,919 float64s, so a part holds one row per chunk; the
    earlier rule, 2^19 plane-grid cells, took 11 rows, 6 MB.)"""
    lattice, basis, images = case
    allow_cpus(2)
    rows = projection._rows(basis)
    parts = 2 if N * lattice.d >= _blas.PARALLEL_VALUES and N > rows else 1
    peak = _peak(lambda: project(images, basis))
    assert peak <= parts * PART + 2 * N * basis.L * 8 + SLACK


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
