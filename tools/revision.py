"""The files of a git revision, for the tools that compare the working tree
with one (`digest.py --against REF`, `pairs.py --against REF`).

`archive(ref, *paths)` returns `git archive REF [paths]` of the repository
that holds the current directory, and `unpack(tar, dest)` extracts it, so a
tool can fetch the revision first, failing fast on an unknown one, and
unpack it where it works. Both raise `subprocess.CalledProcessError` from
git, whose `stderr` says what went wrong.
"""

from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path


def git(*args, cwd=None) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, check=True).stdout


def toplevel() -> Path:
    """The root of the working tree that holds the current directory."""
    return Path(git("rev-parse", "--show-toplevel").decode().strip())


def archive(ref: str, *paths) -> bytes:
    """The tar archive of `paths` (the whole tree when none) at `ref`."""
    return git("archive", ref, *paths, cwd=toplevel())


def unpack(tar: bytes, dest: Path) -> Path:
    """Extract an `archive` into `dest`; returns `dest`."""
    with tarfile.open(fileobj=io.BytesIO(tar)) as bundle:
        bundle.extractall(dest, filter="data")
    return dest
