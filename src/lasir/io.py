"""On-disk formats shared across the package.

Two container formats are used everywhere:

* key-value text: one ``key: value`` per line, ``#`` comments allowed.
  Used for bundle headers, config files, and run manifests.
* matrix bundle: a ``<prefix>.hdr`` key-value header describing named
  float64 little-endian matrices stored back to back in ``<prefix>.dat``.
  Used for basis systems, fit results, and simulation ground truth.
"""

from __future__ import annotations

import hashlib
import os
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

    Parameters
    ----------
    prefix : str or Path
        Output path without extension; ``.hdr`` and ``.dat`` are appended.
    matrices : mapping name -> ndarray
        Arrays are stored as float64 little-endian, C-order. 1-D arrays are
        written as single-column matrices.
    meta : mapping, optional
        Scalar metadata, stored in the header as ``meta.<key>`` entries.
    """
    prefix = str(prefix)
    dat_path = prefix + ".dat"
    entries = [("format", MATRIX_FORMAT), ("payload", os.path.basename(dat_path)),
               ("dtype", "float64-le")]
    offset = 0
    with open(dat_path, "wb") as fh:
        for name, arr in matrices.items():
            arr = np.asarray(arr, dtype="<f8")
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2:
                raise ValueError(f"matrix {name!r} must be 1-D or 2-D, got shape {arr.shape}")
            entries.append(("matrix", f"{name} {arr.shape[0]} {arr.shape[1]} {offset}"))
            fh.write(np.ascontiguousarray(arr).tobytes())
            offset += arr.nbytes
    for key, value in (meta or {}).items():
        entries.append((f"meta.{key}", value))
    write_kv(prefix + ".hdr", entries)


def read_matrix_bundle(prefix):
    """Read a matrix bundle; returns (matrices, meta) with meta values as strings.

    Each matrix is read from its own offset, so reading a bundle holds it in
    memory once.
    """
    prefix = str(prefix)
    header = read_kv(prefix + ".hdr", multi=("matrix",))
    if header.get("format") != MATRIX_FORMAT:
        raise ValueError(f"{prefix}.hdr: expected format {MATRIX_FORMAT!r}, "
                         f"got {header.get('format')!r}")
    if header.get("dtype") != "float64-le":
        raise ValueError(f"{prefix}.hdr: unsupported dtype {header.get('dtype')!r}")
    dat_path = os.path.join(os.path.dirname(prefix) or ".", header["payload"])
    size = os.path.getsize(dat_path)
    matrices = OrderedDict()
    with open(dat_path, "rb") as fh:
        for spec in header.get("matrix", []):
            try:
                name, rows, cols, offset = spec.split()
                rows, cols, offset = int(rows), int(cols), int(offset)
            except ValueError as exc:
                raise ValueError(f"{prefix}.hdr: malformed matrix record {spec!r}") from exc
            count = rows * cols
            if offset < 0 or offset + 8 * count > size:
                raise ValueError(f"{prefix}.hdr: matrix {name!r} extends past payload end")
            fh.seek(offset)
            matrices[name] = np.fromfile(fh, dtype="<f8", count=count).reshape(rows, cols)
    meta = {k[len("meta."):]: v for k, v in header.items() if k.startswith("meta.")}
    return matrices, meta
