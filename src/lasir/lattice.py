"""Voxel lattices, dataset containers, and their on-disk formats.

A lattice is a 3-D grid with an inclusion mask. Masked-in voxels are
enumerated x-fastest (linear index ``ix + nx*(iy + ny*iz)``) and each
carries normalized coordinates on [-1, 1]^3, affine in the grid index and
symmetric about the grid center. All downstream computation works with the
``d`` masked voxels only; masked-out grid cells are carried as NaN in files.

Volume bundle format (one bundle = header + payload + mask):

* ``<base>.hdr``  key-value text: format, dims, voxel_order "x-fastest",
  dtype "float32-le" (little endian), count, payload filename, mask filename.
* ``<base>.dat``  count x (nx*ny*nz) float32 little-endian, C-order rows,
  voxels x-fastest within each row; NaN outside the mask.
* ``<base>.mask`` one byte (0/1) per grid cell, x-fastest.

Covariate table: delimited text (comma), header row, required columns
``id`` and ``site``; exposure columns prefixed ``x_``; control columns
prefixed ``z_``.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .io import read_kv, write_kv

VOLUME_FORMAT = "volume-bundle-v1"
CHUNK = 1 << 22  # grid cells read, or image values checked, at a time


@dataclass
class VoxelLattice:
    """A masked 3-D voxel grid with normalized coordinates.

    Attributes
    ----------
    dims : tuple of int
        Grid extents (nx, ny, nz).
    mask : ndarray of bool, shape dims
        Inclusion mask.
    coords : ndarray, shape (d, 3)
        Normalized coordinates of the masked voxels, x-fastest order.
    """

    dims: tuple
    mask: np.ndarray
    coords: np.ndarray

    @property
    def d(self) -> int:
        return self.coords.shape[0]

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def flat_mask(self) -> np.ndarray:
        """Mask flattened to the x-fastest linear order."""
        return self.mask.ravel(order="F")


def _axis_coords(m: int) -> np.ndarray:
    # Affine symmetric map onto [-1, 1]; a degenerate axis collapses to 0.
    if m == 1:
        return np.zeros(1)
    return -1.0 + 2.0 * np.arange(m) / (m - 1)


def build_lattice(dims, mask_spec="full") -> VoxelLattice:
    """Build a voxel lattice from grid dims and a mask.

    Parameters
    ----------
    dims : sequence of 3 ints
        Grid extents, all >= 1.
    mask_spec : "full" or ndarray of bool with shape `dims`
        Inclusion mask; "full" keeps every cell.

    Returns
    -------
    VoxelLattice
    """
    dims = tuple(int(m) for m in dims)
    if len(dims) != 3 or any(m < 1 for m in dims):
        raise ValueError(f"dims must be 3 positive integers, got {dims}")
    if isinstance(mask_spec, str):
        if mask_spec != "full":
            raise ValueError(f"unknown mask spec {mask_spec!r}")
        mask = np.ones(dims, dtype=bool)
    else:
        mask = np.asarray(mask_spec, dtype=bool)
        if mask.shape != dims:
            raise ValueError(f"mask shape {mask.shape} does not match dims {dims}")
    if not mask.any():
        raise ValueError("empty lattice")
    axes = [_axis_coords(m) for m in dims]
    grids = np.meshgrid(*axes, indexing="ij")
    keep = mask.ravel(order="F")
    coords = np.column_stack([g.ravel(order="F")[keep] for g in grids])
    return VoxelLattice(dims=dims, mask=mask, coords=coords)


@dataclass
class Dataset:
    """Per-individual images and covariates.

    Attributes
    ----------
    images : ndarray, shape (n, d), float32
        Image intensities at the masked voxels.
    exposures : ndarray, shape (n, p+1)
        Exposure design with a leading all-ones intercept column.
    controls : ndarray, shape (n, q)
        Control covariates (q may be 0).
    sites : ndarray, shape (n, S)
        One-hot site indicators (exactly one 1 per row).
    ids : ndarray of str, shape (n,)
    site_codes : ndarray, shape (S,)
        Original site codes, sorted; column s of `sites` maps to
        ``site_codes[s]``.
    exposure_names, control_names : list of str
        Column names without the leading intercept.
    projections : dict
        The projection records of the images (`projection.projected`), one
        per basis key (`BasisSystem.key`), made on first request.

    `images` is a read-only view, set when the Dataset is made, so that its
    projection records cannot go stale: writing into it raises ValueError.
    To change images, build a new Dataset. (The array the view was taken of
    stays writable; writing into it changes the images under the records.)
    """

    images: np.ndarray
    exposures: np.ndarray
    controls: np.ndarray
    sites: np.ndarray
    ids: np.ndarray = None
    site_codes: np.ndarray = None
    exposure_names: list = field(default_factory=list)
    control_names: list = field(default_factory=list)
    projections: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.images = np.asarray(self.images).view()
        self.images.flags.writeable = False
        n = self.images.shape[0]
        for name in ("exposures", "controls", "sites"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(f"row count mismatch: images has {n} rows, "
                                 f"{name} has {arr.shape[0]}")
        if not np.all(self.exposures[:, 0] == 1.0):
            raise ValueError("exposures column 0 must be identically 1")
        row_sums = self.sites.sum(axis=1)
        if not np.all((self.sites == 0) | (self.sites == 1)) or not np.all(row_sums == 1):
            raise ValueError("sites must be one-hot with exactly one 1 per row")
        if self.ids is None:
            self.ids = np.array([f"ind-{i:05d}" for i in range(n)])
        if self.site_codes is None:
            self.site_codes = np.arange(1, self.sites.shape[1] + 1)

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def p(self) -> int:
        return self.exposures.shape[1] - 1

    @property
    def q(self) -> int:
        return self.controls.shape[1]

    @property
    def n_sites(self) -> int:
        return self.sites.shape[1]


@dataclass
class GroundTruth:
    """Simulation truth: labels, coefficient maps, and gating weights.

    `alpha` is (K, p+1, d); `gamma` (S, d), one row per configured site, so
    that a dataset's site column j is row ``site_codes[j] - 1``; `eta` (q, d);
    `gating` (K, q+1) with the last row identically zero.
    """

    labels: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    gating: np.ndarray

    def __post_init__(self):
        if not np.allclose(self.gating[-1], 0.0):
            raise ValueError("gating row for the reference group must be zero")


def save_volume_map(values, lattice: VoxelLattice, base) -> None:
    """Write masked voxel values as a volume bundle.

    Parameters
    ----------
    values : ndarray, shape (d,) or (count, d)
        One value per masked voxel (per map). Stored as float32; grid cells
        outside the mask are filled with NaN.
    lattice : VoxelLattice
    base : str or Path
        Output path without extension.
    """
    values = np.atleast_2d(np.asarray(values))
    if values.shape[1] != lattice.d:
        raise ValueError(f"value length {values.shape[1]} does not match "
                         f"lattice d={lattice.d}")
    base = str(base)
    count = values.shape[0]
    full = np.full((count, lattice.n_cells), np.nan, dtype="<f4")
    full[:, lattice.flat_mask] = values.astype("<f4")
    full.tofile(base + ".dat")
    write_kv(base + ".hdr", [
        ("format", VOLUME_FORMAT),
        ("dims", " ".join(str(m) for m in lattice.dims)),
        ("voxel_order", "x-fastest"),
        ("dtype", "float32-le"),
        ("count", count),
        ("payload", os.path.basename(base) + ".dat"),
        ("mask", write_mask(lattice.mask, base)),
    ])


def _read_volume_header(base):
    header = read_kv(str(base) + ".hdr")
    if header.get("format") != VOLUME_FORMAT:
        raise ValueError(f"{base}.hdr: expected format {VOLUME_FORMAT!r}, "
                         f"got {header.get('format')!r}")
    for key, expect in (("voxel_order", "x-fastest"), ("dtype", "float32-le")):
        if header.get(key) != expect:
            raise ValueError(f"{base}.hdr: unsupported {key} {header.get(key)!r}")
    try:
        dims = tuple(int(t) for t in header["dims"].split())
        count = int(header["count"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{base}.hdr: malformed dims/count") from exc
    return header, dims, count


def write_mask(mask: np.ndarray, base) -> str:
    """Write the boolean volume `mask` as ``<base>.mask``, one byte (0/1) per
    grid cell, x-fastest; returns the file name that headers record."""
    mask.ravel(order="F").astype(np.uint8).tofile(str(base) + ".mask")
    return os.path.basename(str(base)) + ".mask"


def read_mask(base, name, dims) -> np.ndarray:
    """The mask file `name`, in the directory of `base`, as a boolean volume
    of shape `dims`: one byte (0/1) per grid cell, x-fastest."""
    path = os.path.join(os.path.dirname(str(base)) or ".", name)
    flat = np.fromfile(path, dtype=np.uint8)
    if flat.size != int(np.prod(dims)):
        raise ValueError(f"{path}: mask size {flat.size} does not match dims {dims}")
    return flat.astype(bool).reshape(dims, order="F")


def lattice_from_volume(base) -> VoxelLattice:
    """Rebuild the lattice recorded in a volume bundle."""
    header, dims, _ = _read_volume_header(base)
    return build_lattice(dims, read_mask(base, header["mask"], dims))


def load_volume_map(base, lattice: VoxelLattice = None):
    """Read a volume bundle; returns (values, lattice) with values (count, d).

    The header and mask are read once; a given `lattice` must have the
    bundle's dims and mask. The payload is read about `CHUNK` grid cells at
    a time into a reused buffer, and each chunk's masked cells are gathered
    straight into the result rows, so neither the count x grid-cells array
    nor a per-chunk array is ever allocated. A payload of at least
    `_blas.PARALLEL_CHUNKS` chunks is read on the allowed CPUs
    (`_blas.deal`), each part through a file handle and buffer of its own;
    every chunk lands in its own rows, so the values do not depend on the
    thread count. A payload
    whose size does not match the header raises ValueError naming the
    ``.dat`` file. Any value is returned as stored, NaN and infinities
    included; `load_dataset` reads through the same loop and rejects them.
    """
    return _read_volume(base, lattice, finite=False)


def _read_volume(base, lattice, finite):
    """`load_volume_map`; with `finite`, each chunk's gathered rows are
    checked just after the gather, while they are in cache, and the first
    map holding a non-finite value raises ValueError naming its index.
    Cells outside the mask are never gathered, so they are not checked.
    Each part stops at its first failing chunk, and the error of the lowest
    failing chunk start is raised: the error a serial loop would raise."""
    base = str(base)
    header, dims, count = _read_volume_header(base)
    mask = read_mask(base, header["mask"], dims)
    if lattice is None:
        lattice = build_lattice(dims, mask)
    elif lattice.dims != dims or not np.array_equal(lattice.mask, mask):
        raise ValueError(f"{base}: volume dims/mask do not match the given lattice")
    path = base + ".dat"
    size = os.path.getsize(path) // 4
    if size != count * lattice.n_cells:
        raise ValueError(f"{path}: payload size {size} does not match "
                         f"count {count} x {lattice.n_cells} cells")
    values = np.empty((count, lattice.d), dtype=np.float32)
    cells = np.flatnonzero(lattice.flat_mask)
    step = max(1, CHUNK // lattice.n_cells)
    rows_max = min(step, count)

    with contextlib.ExitStack() as files:
        def buffers():
            return (files.enter_context(open(path, "rb")),
                    np.empty((rows_max, lattice.n_cells), dtype="<f4"),
                    np.empty((rows_max, lattice.d), dtype=bool) if finite else None)

        def read(starts, fh, buffer, isfinite):
            """(first failing start, its message) of this part, or None."""
            for start in starts:
                rows = values[start:start + step]
                m = rows.shape[0]
                grid = buffer[:m]
                fh.seek(start * grid.strides[0])
                if fh.readinto(grid) != grid.nbytes:
                    return start, f"{path}: payload ends before map {start + m}"
                # cells come from flatnonzero(mask), so "clip" never clips; unlike
                # mode="raise", it lets take write into `rows` without a buffer
                np.take(grid, cells, axis=1, out=rows, mode="clip")
                if finite:
                    np.isfinite(rows, out=isfinite[:m])
                    if not (ok := isfinite[:m].all(axis=1)).all():
                        i = start + int(np.argmin(ok))
                        return start, f"non-finite image value for individual index {i}"
            return None

        failures = [f for f in _blas.deal(read, range(0, count, step), buffers=buffers) if f]
    if failures:
        raise ValueError(min(failures)[1])
    return values, lattice


def save_dataset(dataset: Dataset, lattice: VoxelLattice, volume_base, covariate_path) -> None:
    """Write a Dataset as a volume bundle plus a CSV covariate table; ids and
    site codes that contain commas or quotes are quoted."""
    save_volume_map(dataset.images, lattice, volume_base)
    x_names = dataset.exposure_names or [f"x_{j}" for j in range(1, dataset.p + 1)]
    z_names = dataset.control_names or [f"z_{r}" for r in range(1, dataset.q + 1)]
    site_col = np.asarray(dataset.site_codes)[np.argmax(dataset.sites, axis=1)]
    with open(covariate_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "site"] + list(x_names) + list(z_names))
        for i in range(dataset.n):
            vals = [f"{v:.17g}" for v in dataset.exposures[i, 1:]]
            vals += [f"{v:.17g}" for v in dataset.controls[i]]
            writer.writerow([str(dataset.ids[i]), str(site_col[i])] + vals)


def load_dataset(volume_base, covariate_path, lattice: VoxelLattice) -> Dataset:
    """Load a Dataset from a volume bundle and a covariate table.

    The table is read as CSV (the `csv` module's default dialect), so a
    quoted field may contain commas.

    Site one-hot columns are ordered by distinct site code: by value, with
    equal values ("01", "1") in text order, when every code is a number,
    else in text order. Raises ValueError naming the offending record on
    dimension mismatches, malformed headers, or non-finite values.
    """
    images, lattice = _read_volume(volume_base, lattice, finite=True)

    with open(covariate_path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{covariate_path}: empty covariate table")
    names = [c.strip() for c in rows[0]]
    for required in ("id", "site"):
        if required not in names:
            raise ValueError(f"{covariate_path}: missing required column {required!r}")
    x_names = [c for c in names if c.startswith("x_")]
    z_names = [c for c in names if c.startswith("z_")]
    records = rows[1:]
    if len(records) != images.shape[0]:
        raise ValueError(f"row count mismatch: covariate table has {len(records)} rows, "
                         f"volume has {images.shape[0]} individuals")
    col = {name: j for j, name in enumerate(names)}
    ids, site_raw = [], []
    exposures = np.ones((len(records), len(x_names) + 1))
    controls = np.zeros((len(records), len(z_names)))
    for i, rec in enumerate(records):
        if len(rec) != len(names):
            raise ValueError(f"{covariate_path}: row {i + 1} has {len(rec)} fields, "
                             f"expected {len(names)}")
        ids.append(rec[col["id"]].strip())
        site_raw.append(rec[col["site"]].strip())
        try:
            for j, name in enumerate(x_names):
                exposures[i, j + 1] = float(rec[col[name]])
            for j, name in enumerate(z_names):
                controls[i, j] = float(rec[col[name]])
        except ValueError as exc:
            raise ValueError(f"{covariate_path}: unparseable value in record "
                             f"id={ids[-1]!r}") from exc
    if not np.all(np.isfinite(exposures)) or not np.all(np.isfinite(controls)):
        i = int(np.argwhere(~(np.isfinite(exposures).all(axis=1)
                              & np.isfinite(controls).all(axis=1)))[0, 0])
        raise ValueError(f"non-finite covariate in record id={ids[i]!r}")

    distinct = set(site_raw)
    if all(_is_number(s) for s in distinct):
        site_codes = sorted(sorted(distinct), key=float)  # stable: ties in text order
    else:
        site_codes = sorted(distinct)
    sites = np.zeros((len(records), len(site_codes)))
    index = {code: j for j, code in enumerate(site_codes)}
    for i, code in enumerate(site_raw):
        sites[i, index[code]] = 1.0
    return Dataset(images=images, exposures=exposures, controls=controls, sites=sites,
                   ids=np.array(ids), site_codes=np.array(site_codes),
                   exposure_names=x_names, control_names=z_names)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
