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

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .io import read_kv, write_kv

VOLUME_FORMAT = "volume-bundle-v1"


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
    """

    images: np.ndarray
    exposures: np.ndarray
    controls: np.ndarray
    sites: np.ndarray
    ids: np.ndarray = None
    site_codes: np.ndarray = None
    exposure_names: list = field(default_factory=list)
    control_names: list = field(default_factory=list)

    def __post_init__(self):
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

    `alpha` is (K, p+1, d); `gamma` (S, d); `eta` (q, d); `gating` (K, q+1)
    with the last row identically zero.
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
    lattice.flat_mask.astype(np.uint8).tofile(base + ".mask")
    write_kv(base + ".hdr", [
        ("format", VOLUME_FORMAT),
        ("dims", " ".join(str(m) for m in lattice.dims)),
        ("voxel_order", "x-fastest"),
        ("dtype", "float32-le"),
        ("count", count),
        ("payload", os.path.basename(base) + ".dat"),
        ("mask", os.path.basename(base) + ".mask"),
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


def lattice_from_volume(base) -> VoxelLattice:
    """Rebuild the lattice recorded in a volume bundle."""
    base = str(base)
    header, dims, _ = _read_volume_header(base)
    mask_path = os.path.join(os.path.dirname(base) or ".", header["mask"])
    flat = np.fromfile(mask_path, dtype=np.uint8)
    if flat.size != int(np.prod(dims)):
        raise ValueError(f"{mask_path}: mask size {flat.size} does not match dims {dims}")
    mask = flat.astype(bool).reshape(dims, order="F")
    return build_lattice(dims, mask)


def load_volume_map(base, lattice: VoxelLattice = None):
    """Read a volume bundle; returns (values, lattice) with values (count, d)."""
    base = str(base)
    _, dims, count = _read_volume_header(base)
    file_lattice = lattice_from_volume(base)
    if lattice is None:
        lattice = file_lattice
    elif lattice.dims != dims or not np.array_equal(lattice.mask, file_lattice.mask):
        raise ValueError(f"{base}: volume dims/mask do not match the given lattice")
    full = np.fromfile(base + ".dat", dtype="<f4")
    if full.size != count * lattice.n_cells:
        raise ValueError(f"{base}.dat: payload size {full.size} does not match "
                         f"count {count} x {lattice.n_cells} cells")
    values = full.reshape(count, lattice.n_cells)[:, lattice.flat_mask]
    return np.ascontiguousarray(values), lattice


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

    Site one-hot columns are ordered by sorted distinct site code. Raises
    ValueError naming the offending record on dimension mismatches,
    malformed headers, or non-finite values.
    """
    images, lattice = load_volume_map(volume_base, lattice)
    bad = ~np.isfinite(images)
    if bad.any():
        i = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise ValueError(f"non-finite image value for individual index {i}")

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
        site_codes = sorted(distinct, key=float)
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
