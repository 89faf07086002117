"""Mapping between voxel space and basis-coefficient space.

With an orthonormal basis Psi (d x L), an image row y maps to the
coefficient row ``y @ Psi`` and a coefficient row theta back to the map
``theta @ Psi.T``. Back-then-forward projection is the identity on
coefficient space; forward projection contracts norms (Parseval), with
equality exactly for images in the basis span.

For a factored basis, Psi = (Phi_x (x) Phi_y (x) Phi_z) T at the masked
voxels, both maps are contracted one axis at a time on the grid of planes
the mask meets, a chunk of rows at a time: about 2 m_cells (h+1) flops per
image instead of 2 d L, and no d x L or n x d float64 array. A chunk holds
as many rows as fit in `CHUNK` float64s across the four buffers a pass
works in, the plane grid and the x-, y- and z-contractions (`_rows`):
1 MB per part, at least one row. Images reach
that grid, and maps leave it, one row at a time through the boolean mask
`Layout.inside`: per image, one scatter (or gather) of d values plus one
pass over the m_cells of the grid. A projection of at least
`_blas.PARALLEL_VALUES` image values deals its chunks to the allowed CPUs
(`_blas.deal`); each chunk is contracted exactly as in a serial loop, into
rows of its own, so its bits do not depend on the thread count.

A `Dataset` keeps the projection of its images on each basis it meets, as a
`Projected` record keyed by the basis's `BasisSystem.key` (a SHA-256 of
its matrices): `projected` computes it on the first request and returns it
on every later one, so the fits, the baselines, `select_k` and the holdout
validation of one dataset on one basis project its images once. The key is
the content of the basis, not the object, so a basis reloaded from its
bundle finds the record too.

`project` reads its images through the one interface of an image source
(`lattice.image_source`): a `lattice.ImageArray` in memory, or the
`lattice.VolumePayload` of a loaded dataset, whose chunks of rows are read
straight from the ``.dat`` file, checked for non-finite values and
contracted while they are in cache, so load plus projection is one pass
over the file and no n x d array is formed. A payload chunk has the layout
of the slice of an array, and one contraction serves both, so the record
has the same bits either way.
"""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np

from . import _blas
from .basis import BasisSystem
from .lattice import CHUNK as IMAGE_CHUNK, image_source

CHUNK = 1 << 17  # float64s held by one part's four buffers: plane grid, x, y and z
_RECORDS = threading.Lock()  # held while `projected` looks up or makes a record


def _row_floats(basis: BasisSystem) -> int:
    """float64s one image row takes in the four buffers of a factored pass:
    its plane grid (z, y, x), then the contractions over x (z, y, a), y
    (z, b, a) and z (c, b, a). `project` fills them in this order and
    `backproject` in the reverse one."""
    mx, my, mz = (f.shape[0] for f in basis.layout.factors)
    H = basis.h + 1
    return mz * my * (mx + H) + mz * H * H + H ** 3


def _rows(basis: BasisSystem) -> int:
    """Rows per chunk: as many as `CHUNK` float64s hold (`_row_floats`), at
    least one."""
    return max(1, CHUNK // _row_floats(basis))


def project(images, basis: BasisSystem) -> np.ndarray:
    """Project images (n, d) onto the basis, returning coefficients (n, L).

    `images` is an array or an image source (`lattice.image_source`), which
    a factored basis streams chunk by chunk (see the module docstring) and
    an explicit psi reads whole. A factored basis upcasts float32 images
    one row at a time, as they are scattered into the plane grid; an
    explicit psi upcasts all rows at once. A factored pass of at least
    `_blas.PARALLEL_VALUES` image values runs its chunks on the allowed CPUs
    (`_blas.deal`), each part with buffers of its own; every chunk is
    contracted as in a serial loop, so the result does not depend on the
    thread count.
    """
    images = image_source(images)
    n, d = images.shape
    if d != basis.d:
        raise ValueError(f"image column count {d} does not match basis d={basis.d}")
    if basis.factors is None:
        return np.asarray(images.read(), dtype=np.float64) @ basis.psi
    layout = basis.layout
    fx, fy, fz = layout.factors
    mx, my, mz = fx.shape[0], fy.shape[0], fz.shape[0]
    H = basis.h + 1
    step = _rows(basis)
    out = np.empty((n, basis.L))

    def buffers():
        rows = min(step, n)
        # cells off the mask stay zero throughout
        return (np.zeros((rows, mz * my * mx)), np.empty((rows * mz * my, H)),
                np.empty((rows * mz, H, H)), np.empty((rows, H, H * H)))

    def contract(start, rows, grid, tx, ty, tz):
        m = rows.shape[0]
        for j in range(m):  # per row: 1-D boolean assignment is far faster than 2-D
            grid[j][layout.inside] = rows[j]
        t = np.matmul(grid[:m].reshape(m * mz * my, mx), fx,
                      out=tx[:m * mz * my])                             # (m z y, a)
        t = np.matmul(fy.T, t.reshape(m * mz, my, H), out=ty[:m * mz])  # (m z, b, a)
        t = np.matmul(fz.T, t.reshape(m, mz, H * H), out=tz[:m])        # (m, c, b a)
        # slots are in range, so "clip" never clips; it takes without a buffer
        np.take(t.reshape(m, H ** 3), layout.slots, axis=1, out=out[start:start + m],
                mode="clip")

    images.stream(step, contract, buffers)
    return basis.from_tensor(out)


class Projected:
    """One dataset's images projected on one basis: `ytilde` (n, L), read
    only, and, computed on first use, `sq_norms` (n,), each image's squared
    norm summed in float64 one row at a time, over chunks of about
    `lattice.CHUNK` values. Images held as a `VolumePayload` are streamed
    for each: once for `ytilde`, and once more on the first use of
    `sq_norms`, whose pass holds one chunk's read buffer and finite mask
    per part, 5 bytes per value."""

    def __init__(self, images, basis: BasisSystem):
        self._images = images = image_source(images)
        self.ytilde = project(images, basis)
        self.ytilde.flags.writeable = False

    @cached_property
    def sq_norms(self) -> np.ndarray:
        images = self._images
        out = np.empty(images.shape[0])

        def add(start, rows):
            for j, row in enumerate(rows):  # per row: no chunk-sized float64 copy
                out[start + j] = np.square(row, dtype=np.float64).sum()

        images.stream(max(1, IMAGE_CHUNK // images.shape[1]), add)
        return out


def projected(dataset, basis: BasisSystem) -> Projected:
    """The `Projected` record of `dataset` on `basis`, made on the first
    request for the basis's `key` and kept on the dataset. It is always
    computed with numpy's OpenBLAS pool pinned to one thread, so its bits
    do not depend on which caller asks first, and records are made one at a
    time, so callers on several threads share one. The record keeps n x L
    floats alive as long as the dataset. A dataset loaded from a volume
    bundle streams its payload into the record (`project`); a read that
    fails, on a non-finite value or a payload of the wrong size, leaves no
    record, so the next request reads again and raises again."""
    key = basis.key
    with _RECORDS:
        record = dataset.projections.get(key)
        if record is None:
            with _blas.single_thread:
                record = dataset.projections[key] = Projected(dataset.image_source, basis)
    return record


def backproject(coefs: np.ndarray, basis: BasisSystem) -> np.ndarray:
    """Reconstruct voxel maps (m, d) from basis coefficients (m, L)."""
    coefs = np.atleast_2d(coefs)
    if coefs.shape[1] != basis.L:
        raise ValueError(f"coefficient column count {coefs.shape[1]} does not match "
                         f"basis L={basis.L}")
    coefs = np.asarray(coefs, dtype=np.float64)
    if basis.factors is None:
        return coefs @ basis.psi.T
    layout = basis.layout
    fx, fy, fz = layout.factors
    mz, my = fz.shape[0], fy.shape[0]
    H = basis.h + 1
    raw = coefs @ basis.T.T
    n, step = raw.shape[0], _rows(basis)
    out = np.empty((n, basis.d))
    for start in range(0, n, step):
        m = min(step, n - start)
        cube = np.zeros((m, H ** 3))
        cube[:, layout.slots] = raw[start:start + m]
        t = fz @ cube.reshape(m, H, H * H)           # (m, z, b a)
        t = fy @ t.reshape(m * mz, H, H)             # (m z, y, a)
        t = t.reshape(m * mz * my, H) @ fx.T         # (m z y, x)
        for j, row in enumerate(t.reshape(m, -1)):  # per row, as in `project`
            out[start + j] = row[layout.inside]
    return out
