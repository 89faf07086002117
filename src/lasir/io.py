"""On-disk formats shared across the package.

Two container formats are used everywhere:

* key-value text: one ``key: value`` per line, ``#`` comments allowed.
  Used for bundle headers, config files, and run manifests.
* matrix bundle: a ``<prefix>.hdr`` key-value header describing named
  float64 little-endian matrices stored back to back in ``<prefix>.dat``.
  Used for basis systems, fit results, and simulation ground truth.

Loading a matrix bundle reads its header only: the payload is mapped once,
copy-on-write, and each matrix is a view of the map at its offset, whose
pages are read when first touched. Writing into a loaded matrix changes
the process's copy, never the file. The map holds a duplicate descriptor
of the payload for as long as any matrix of the bundle is alive, so a
script that keeps thousands of loaded bundles alive holds that many
descriptors.

Writing a bundle writes the payload and then the header to temporary files
beside the target and renames them into place, payload first. A mapped old
payload is therefore never truncated under its readers (a touch of a
mapped page past the new end would raise SIGBUS), and a write that fails
removes its temporaries and leaves the old bundle whole. A process
that dies between the two renames leaves the new payload under the old
header.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import uuid
from collections import OrderedDict

import numpy as np

MATRIX_FORMAT = "matrix-bundle-v1"


def write_kv(path, entries) -> None:
    """Write an ordered mapping (or list of (key, value) pairs) as key-value text."""
    items = entries.items() if hasattr(entries, "items") else entries
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items:
            fh.write(f"{key}: {value}\n")


def read_kv(path, multi=()):
    """Read key-value text into an OrderedDict.

    Keys listed in `multi` may repeat and collect into lists. A line without
    a ``:`` separator raises ValueError naming the line.
    """
    out = OrderedDict()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ValueError(f"malformed header line {lineno} in {path}: {raw.rstrip()!r}")
            key, value = line.split(":", 1)
            key, value = key.strip(), value.strip()
            if key in multi:
                out.setdefault(key, []).append(value)
            elif key in out:
                raise ValueError(f"duplicate key {key!r} at line {lineno} in {path}")
            else:
                out[key] = value
    return out


def config_hash(entries) -> str:
    """SHA-256 over the canonical key-value rendering of a config mapping."""
    text = "".join(f"{k}: {v}\n" for k, v in sorted(dict(entries).items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_matrix_bundle(prefix, matrices, meta=None) -> None:
    """Write named 2-D float64 matrices plus metadata as a matrix bundle.

    The payload and then the header are written in full to temporary files
    beside the target and only then renamed into place, payload first, so
    an existing bundle is replaced, never truncated, and a failed write
    (a matrix that is not 1-D or 2-D, a full disk) leaves it whole. The
    temporaries are opened like any new file, so they take the mode the
    umask gives; on failure they are removed.

    Parameters
    ----------
    prefix : str or Path
        Output path without extension; ``.hdr`` and ``.dat`` are appended.
    matrices : mapping name -> ndarray
        Arrays are stored as float64 little-endian, C-order. 1-D arrays are
        written as single-column matrices. A C-ordered little-endian float64
        array is written from its own buffer; any other is copied once.
    meta : mapping, optional
        Scalar metadata, stored in the header as ``meta.<key>`` entries.
    """
    prefix = str(prefix)
    dat_path, hdr_path = prefix + ".dat", prefix + ".hdr"
    tag = f".{uuid.uuid4().hex[:12]}.tmp"
    dat_tmp, hdr_tmp = dat_path + tag, hdr_path + tag
    entries = [("format", MATRIX_FORMAT), ("payload", os.path.basename(dat_path)),
               ("dtype", "float64-le")]
    offset = 0
    try:
        with open(dat_tmp, "xb") as fh:
            for name, arr in matrices.items():
                arr = np.asarray(arr, dtype="<f8")
                if arr.ndim == 1:
                    arr = arr[:, None]
                if arr.ndim != 2:
                    raise ValueError(f"matrix {name!r} must be 1-D or 2-D, got shape {arr.shape}")
                entries.append(("matrix", f"{name} {arr.shape[0]} {arr.shape[1]} {offset}"))
                fh.write(np.ascontiguousarray(arr).data)  # a copy only when not C-ordered
                offset += arr.nbytes
        for key, value in (meta or {}).items():
            entries.append((f"meta.{key}", value))
        write_kv(hdr_tmp, entries)
        os.replace(dat_tmp, dat_path)
        os.replace(hdr_tmp, hdr_path)
    except BaseException:
        for path in (dat_tmp, hdr_tmp):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise


def read_matrix_bundle(prefix):
    """Read a matrix bundle; returns (matrices, meta) with meta values as strings.

    The payload is mapped once, copy-on-write, and each matrix, checked
    against the payload's size, is a plain float64 ndarray viewing the map
    at its offset. Its pages are read when first touched, and writes to it
    stay in this process. The map and its duplicate descriptor of the
    payload are released with the last matrix of the bundle. An empty
    payload, whose matrices are all empty, is not mapped.
    """
    prefix = str(prefix)
    header = read_kv(prefix + ".hdr", multi=("matrix",))
    if header.get("format") != MATRIX_FORMAT:
        raise ValueError(f"{prefix}.hdr: expected format {MATRIX_FORMAT!r}, "
                         f"got {header.get('format')!r}")
    if header.get("dtype") != "float64-le":
        raise ValueError(f"{prefix}.hdr: unsupported dtype {header.get('dtype')!r}")
    dat_path = os.path.join(os.path.dirname(prefix) or ".", header["payload"])
    with open(dat_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # a file of length 0 cannot be mapped; its matrices are all empty, at
        # offset 0, and np.ndarray allocates them when given no buffer
        payload = np.memmap(fh, dtype=np.uint8, mode="c", shape=(size,)) if size else None
    matrices = OrderedDict()
    for spec in header.get("matrix", []):
        try:
            name, rows, cols, offset = spec.split()
            rows, cols, offset = int(rows), int(cols), int(offset)
            if rows < 0 or cols < 0:
                raise ValueError(f"negative shape {rows} x {cols}")
        except ValueError as exc:
            raise ValueError(f"{prefix}.hdr: malformed matrix record {spec!r}") from exc
        if offset < 0 or offset + 8 * rows * cols > size:
            raise ValueError(f"{prefix}.hdr: matrix {name!r} extends past payload end")
        matrices[name] = np.ndarray((rows, cols), dtype="<f8", buffer=payload, offset=offset)
    meta = {k[len("meta."):]: v for k, v in header.items() if k.startswith("meta.")}
    return matrices, meta
