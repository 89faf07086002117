"""Voxel lattices, dataset containers, and their on-disk formats.

A lattice is a 3-D grid with an inclusion mask, and nothing else.
Masked-in voxels are enumerated x-fastest (linear index
``ix + nx*(iy + ny*iz)``) and each has normalized coordinates on
[-1, 1]^3, affine in the grid index and symmetric about the grid center
(`axis_coords`), formed only when `VoxelLattice.coords` is first read.
All downstream computation works with the ``d`` masked voxels only, and
files hold only their values.

Volume bundle format (one bundle = header + payload + mask):

* ``<base>.hdr``  key-value text: format "volume-bundle-v2", dims,
  voxel_order "x-fastest", dtype "float32-le" (little endian), count,
  payload filename, mask filename.
* ``<base>.dat``  count x d float32 little-endian, C-order rows, the
  masked voxels of each row in mask order (x-fastest).
* ``<base>.mask`` one byte (0/1) per grid cell, x-fastest.

A bundle is opened (`_open_volume`) by reading its header and mask only.
The payload is sized and read where its values are needed
(`VolumePayload.stream`), so a payload of the wrong size is reported at the
first read, and work that needs no image values runs without the ``.dat``.

A "volume-bundle-v1" payload, whose rows hold every grid cell with NaN
outside the mask, is still read: its rows are read whole and their masked
cells kept (`VolumePayload.stream`).

Covariate table: delimited text (comma), header row, required columns
``id`` and ``site``; exposure columns prefixed ``x_``; control columns
prefixed ``z_``.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _blas
from .io import read_kv, write_kv

VOLUME_FORMAT = "volume-bundle-v2"
PADDED_FORMAT = "volume-bundle-v1"  # read only: whole grid rows, NaN off the mask
# Image values read, checked or squared at a time: a chunk's float32 read
# buffer and its finite mask hold 5 bytes per value, 1.25 MB together.
CHUNK = 1 << 18


@dataclass
class VoxelLattice:
    """A masked 3-D voxel grid.

    Attributes
    ----------
    dims : tuple of int
        Grid extents (nx, ny, nz).
    mask : ndarray of bool, shape dims
        Inclusion mask.

    `d` is the mask's count. `coords`, the (d, 3) normalized coordinates of
    the masked voxels in x-fastest order, is computed from the mask on its
    first read and kept: the masked set-up (load, basis, fit, maps) never
    reads it, so it is never formed there.
    """

    dims: tuple
    mask: np.ndarray

    @cached_property
    def d(self) -> int:
        return int(np.count_nonzero(self.mask))

    @cached_property
    def coords(self) -> np.ndarray:
        """(d, 3) coordinates of the masked voxels, gathered per axis at the
        mask's nonzero indices (x fastest)."""
        index = np.nonzero(self.mask.T)[::-1]  # (ix, iy, iz), x fastest
        return np.column_stack([axis_coords(m)[i] for m, i in zip(self.dims, index)])

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def flat_mask(self) -> np.ndarray:
        """Mask flattened to the x-fastest linear order."""
        return self.mask.ravel(order="F")


def axis_coords(m: int) -> np.ndarray:
    """Normalized coordinates of an axis of `m` planes: the affine symmetric
    map onto [-1, 1]; a degenerate axis collapses to 0."""
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
    return VoxelLattice(dims=dims, mask=mask)


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
    image_source : ImageArray or VolumePayload
        The images as held: the read-only array, or the unread payload of
        the volume bundle a loaded dataset streams them from. Both have the
        same `shape`, `stream` and `read`.
    projections : dict
        The projection records of the images (`projection.projected`), one
        per basis key (`BasisSystem.key`), made on first request.

    `images` may be given as an (n, d) array or as an image source
    (`image_source`), such as the `VolumePayload` of `load_dataset`. An
    array is kept as an `ImageArray`, a read-only view, so that its
    projection records cannot go stale: writing into it raises ValueError.
    To change images, build a new Dataset. (The array the view was taken of
    stays writable; writing into it changes the images under the records.)
    A payload is read only when the images are needed: each projection
    record streams it (`projection.projected`), and each read of `images`
    returns a new array, which the dataset does not keep. Either read
    raises ValueError on a payload of the wrong size, naming the file, and
    names the first individual whose image holds a non-finite value, so the
    payload must stay in place and unchanged while the dataset is in use.
    Work that needs no image values (Wald maps, metrics) never opens it.
    `n` comes from the covariates.
    """

    def __init__(self, images, exposures, controls, sites, ids=None, site_codes=None,
                 exposure_names=(), control_names=()):
        self.image_source = images = image_source(images)
        self.exposures, self.controls, self.sites = exposures, controls, sites
        self.exposure_names, self.control_names = list(exposure_names), list(control_names)
        self.projections = {}
        rows = images.shape[0]
        for name in ("exposures", "controls", "sites"):
            arr = getattr(self, name)
            if arr.shape[0] != rows:
                raise ValueError(f"row count mismatch: images has {rows} rows, "
                                 f"{name} has {arr.shape[0]}")
        if not np.all(self.exposures[:, 0] == 1.0):
            raise ValueError("exposures column 0 must be identically 1")
        row_sums = self.sites.sum(axis=1)
        if not np.all((self.sites == 0) | (self.sites == 1)) or not np.all(row_sums == 1):
            raise ValueError("sites must be one-hot with exactly one 1 per row")
        self.ids = np.array([f"ind-{i:05d}" for i in range(rows)]) if ids is None else ids
        self.site_codes = (np.arange(1, self.sites.shape[1] + 1) if site_codes is None
                           else site_codes)

    @property
    def images(self) -> np.ndarray:
        return self.image_source.read()

    @property
    def n(self) -> int:
        return self.exposures.shape[0]

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
        One value per masked voxel (per map), stored as float32 in mask
        order; the payload holds nothing for the grid cells outside the
        mask. Little-endian float32 values are written without a copy.
    lattice : VoxelLattice
    base : str or Path
        Output path without extension.
    """
    values = np.atleast_2d(np.asarray(values))
    if values.shape[1] != lattice.d:
        raise ValueError(f"value length {values.shape[1]} does not match "
                         f"lattice d={lattice.d}")
    base = str(base)
    np.asarray(values, dtype="<f4").tofile(base + ".dat")
    write_kv(base + ".hdr", [
        ("format", VOLUME_FORMAT),
        ("dims", " ".join(str(m) for m in lattice.dims)),
        ("voxel_order", "x-fastest"),
        ("dtype", "float32-le"),
        ("count", values.shape[0]),
        ("payload", os.path.basename(base) + ".dat"),
        ("mask", write_mask(lattice.mask, base)),
    ])


def write_mask(mask: np.ndarray, base) -> str:
    """Write the boolean volume `mask` as ``<base>.mask``, one byte (0/1) per
    grid cell, x-fastest; returns the file name that headers record."""
    mask.ravel(order="F").astype(np.uint8).tofile(str(base) + ".mask")
    return os.path.basename(str(base)) + ".mask"


def read_mask(base, name, dims) -> np.ndarray:
    """The mask file `name`, in the directory of `base`, as a boolean volume
    of shape `dims`: one byte (0/1) per grid cell, x-fastest. Raises
    ValueError naming the file for a file of the wrong size or a byte other
    than 0 and 1."""
    path = os.path.join(os.path.dirname(str(base)) or ".", name)
    flat = np.fromfile(path, dtype=np.uint8)
    if flat.size != int(np.prod(dims)):
        raise ValueError(f"{path}: mask size {flat.size} does not match dims {dims}")
    if (top := flat.max(initial=0)) > 1:
        raise ValueError(f"{path}: mask byte {top} is neither 0 nor 1")
    return flat.view(bool).reshape(dims, order="F")


def lattice_from_volume(base) -> VoxelLattice:
    """Rebuild the lattice recorded in a volume bundle (its header and mask;
    the payload is not opened)."""
    return _open_volume(base).lattice


def load_volume_map(base, lattice: VoxelLattice = None):
    """Read a volume bundle; returns (values, lattice) with values (count, d).

    The header and mask are read once; a given `lattice` must have the
    bundle's dims and mask. The payload is read by `VolumePayload.read`,
    about `CHUNK` values at a time; a payload of the wrong size raises
    ValueError naming the ``.dat`` file. Any value is returned as stored,
    NaN and infinities included; `load_dataset` reads through the same loop
    and rejects them.
    """
    payload = _open_volume(base, lattice)
    return payload.read(), payload.lattice


def _open_volume(base, lattice=None, finite=False):
    """The `VolumePayload` of the bundle at `base`: the one reader of volume
    headers. The header and mask are read and checked; the ``.dat`` is not
    touched (`VolumePayload.stream` sizes it). A given `lattice` must have
    the bundle's dims and mask; without one, the bundle's lattice is built."""
    base = str(base)
    header = read_kv(base + ".hdr")
    if header.get("format") not in (VOLUME_FORMAT, PADDED_FORMAT):
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
    mask = read_mask(base, header["mask"], dims)
    if lattice is None:
        lattice = build_lattice(dims, mask)
    elif lattice.dims != dims or not np.array_equal(lattice.mask, mask):
        raise ValueError(f"{base}: volume dims/mask do not match the given lattice")
    width = lattice.n_cells if header["format"] == PADDED_FORMAT else lattice.d
    return VolumePayload(os.path.abspath(base + ".dat"), lattice, count, finite, width)


@dataclass(frozen=True, eq=False)
class VolumePayload:
    """The ``.dat`` payload of a volume bundle, named but not yet opened:
    `count` maps of `width` float32 values in the file `path`, `width` being
    `lattice.d`, or `lattice.n_cells` for the whole grid rows of format
    "volume-bundle-v1". Every read checks the file's size first. With
    `finite`, every read rejects a map holding a non-finite value at a
    masked voxel."""

    path: str
    lattice: VoxelLattice
    count: int
    finite: bool
    width: int

    @property
    def shape(self) -> tuple:
        """(count, d): the shape of the masked values."""
        return self.count, self.lattice.d

    def stream(self, step, consume, buffers=tuple) -> None:
        """Read the maps `step` at a time and call ``consume(start, rows,
        *part)`` on each chunk, `rows` being maps start, start+1, ... as
        (m, d) float32 masked values, valid only during the call.

        The file's size is checked first: a payload of the wrong size (not
        `count` x `width` values) raises ValueError naming the file, before
        any value is read. Each chunk is read straight into a reused row
        buffer; with `finite` the rows are then checked, while they are in
        cache, and the first map holding a non-finite value raises
        ValueError naming its index.
        A chunk of whole grid rows (v1) is read into a buffer of its own,
        and only its masked cells are kept, so the NaN off the mask is never
        checked. (A v1 payload on a full lattice is read as a v2 one.)
        A pass of at least `_blas.PARALLEL_VALUES` masked values (`count`
        x d) is dealt to the allowed CPUs (`_blas.deal`), each part reading
        through a file handle and buffers of its own, plus the ``part =
        buffers()`` it hands to `consume`. Each part stops at its first
        failing chunk, and the error of the lowest failing chunk start is
        raised once every part has finished: the error a serial loop would
        raise.
        """
        lattice, count, finite, width = self.lattice, self.count, self.finite, self.width
        size = os.path.getsize(self.path) // 4
        if size != count * width:
            raise ValueError(f"{self.path}: payload size {size} does not match "
                             f"count {count} x {width} values")
        rows_max = min(step, count)
        keep = None if width == lattice.d else lattice.flat_mask  # v1: the masked cells

        with contextlib.ExitStack() as files:
            def part():
                return (files.enter_context(open(self.path, "rb")),
                        np.empty((rows_max, lattice.d), dtype="<f4"),
                        np.empty((rows_max, lattice.d), dtype=bool) if finite else None,
                        *buffers())

            def read(starts, fh, buffer, isfinite, *extra):
                """(first failing start, its message) of this part, or None."""
                for start in starts:
                    m = min(step, count - start)
                    rows = buffer[:m]
                    fh.seek(start * width * 4)
                    raw = rows if keep is None else np.empty((m, width), dtype="<f4")
                    whole = fh.readinto(raw) == raw.nbytes
                    if raw is not rows:  # the one reader of whole grid rows
                        rows[:] = raw[:, keep]
                    if not whole:
                        return start, f"{self.path}: payload ends before map {start + m}"
                    if finite:
                        np.isfinite(rows, out=isfinite[:m])
                        if not (ok := isfinite[:m].all(axis=1)).all():
                            i = start + int(np.argmin(ok))
                            return start, f"non-finite image value for individual index {i}"
                    consume(start, rows, *extra)
                return None

            failures = [f for f in _blas.deal(read, range(0, count, step), buffers=part,
                                              values=count * lattice.d) if f]
        if failures:
            raise ValueError(min(failures)[1])

    def read(self) -> np.ndarray:
        """The masked values (count, d) float32, streamed about `CHUNK`
        values at a time (`stream`) and copied into a new array."""
        values = np.empty(self.shape, dtype=np.float32)

        def copy(start, rows):
            values[start:start + rows.shape[0]] = rows

        self.stream(max(1, CHUNK // self.lattice.d), copy)
        return values


class ImageArray:
    """Images held in memory as a read-only (n, d) view, with the `shape`,
    `stream` and `read` of a `VolumePayload`: a chunk of a payload has the
    layout of a slice of the array."""

    def __init__(self, images):
        self.values = np.atleast_2d(images).view()
        self.values.flags.writeable = False
        self.shape = self.values.shape

    def stream(self, step, consume, buffers=tuple) -> None:
        """Call ``consume(start, rows, *part)`` on each `step`-row slice of
        the values, dealt as `VolumePayload.stream` deals its chunks, by the
        size of the values."""
        def work(starts, *part):
            for start in starts:
                consume(start, self.values[start:start + step], *part)

        _blas.deal(work, range(0, self.shape[0], step), buffers=buffers,
                   values=self.values.size)

    def read(self) -> np.ndarray:
        """The read-only view itself, not a copy."""
        return self.values


def image_source(images):
    """`images` as an image source: a `VolumePayload` or `ImageArray` as it
    is, an array as an `ImageArray`."""
    return images if isinstance(images, (VolumePayload, ImageArray)) else ImageArray(images)


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


def load_dataset(volume_base, covariate_path, lattice: VoxelLattice = None) -> Dataset:
    """Load a Dataset from a volume bundle and a covariate table.

    The table is read as CSV (the `csv` module's default dialect), so a
    quoted field may contain commas.

    Site one-hot columns are ordered by distinct site code: by value, with
    equal values ("01", "1") in text order, when every code is a number,
    else in text order. Raises ValueError naming the offending record on
    dimension mismatches, malformed headers or non-finite covariates.

    The header, the mask and the covariate table are read and checked
    here; the image payload is not opened. A given `lattice` must have the
    bundle's dims and mask; without one, the bundle's lattice is built
    (``dataset.image_source.lattice``). The dataset holds the payload as a
    `VolumePayload` and streams it on each read (see `Dataset`), so no
    n x d image array is formed: a payload of the wrong size, naming the
    file, or a non-finite image value, naming the individual, raises at the
    first read, the first projection or the first use of `Dataset.images`.
    """
    payload = _open_volume(volume_base, lattice, finite=True)

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
    if len(records) != payload.count:
        raise ValueError(f"row count mismatch: covariate table has {len(records)} rows, "
                         f"volume has {payload.count} individuals")
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
    return Dataset(images=payload, exposures=exposures, controls=controls, sites=sites,
                   ids=np.array(ids), site_codes=np.array(site_codes),
                   exposure_names=x_names, control_names=z_names)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False
