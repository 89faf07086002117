"""The files of a git revision, for the tools that compare the working tree
with one (`digest.py --against REF`, `pairs.py --against REF`).

`archive(ref, *paths)` returns `git archive REF [paths]` of the repository
that holds the current directory, and `unpack(tar, dest)` extracts it, so a
tool can fetch the revision first, failing fast on an unknown one, and
unpack it where it works. Both raise `subprocess.CalledProcessError` from
git, whose `stderr` says what went wrong. `copy_worktree(dest)` copies the
working tree's own files the same way, so that both sides of a comparison
run from fresh directories.
"""

from __future__ import annotations

import io
import os
import shutil
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


def copy_worktree(dest: Path) -> Path:
    """Copy the files of the working tree that git tracks, or would track
    (untracked but not ignored), as they are on disk, into `dest`; returns
    `dest`. A tracked file deleted from the working tree is left out."""
    top = toplevel()
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=top)
    for name in filter(None, names.split(b"\0")):
        source, target = top / os.fsdecode(name), dest / os.fsdecode(name)
        if source.is_file():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return dest
