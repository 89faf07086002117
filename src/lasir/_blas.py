"""Thread control for the OpenBLAS bundled with numpy.

The numpy wheel ships its own OpenBLAS, ``numpy.libs/libscipy_openblas64_*.so``,
with a process-wide thread pool that it sizes through
``scipy_openblas_{get,set}_num_threads64_``; every BLAS and LAPACK call of
lasir, the triangular solves included, runs on it. The EM core makes
thousands of small regressions, for which the pool's workers cost more than
they save and whose sums change with the pool size, so `single_thread` pins
the pool to one thread around a fit, a validation, a basis build, a
simulation and the Wald maps (`infer_maps`, `wald_map`, `svc_variance`,
`coef_covariance`, so that a lone map equals its `infer_maps` map); only a
bare `project`, `backproject` or read of a factored basis's `.psi` keeps
the caller's pool size.

Parallelism comes from Python threads instead, each running its own BLAS
calls: `deal` splits work into parts, one thread each. It runs the replicate
stacks of a fit (`select_k` runs each candidate as one stack on the calling
thread below `selection.THREADED_N` subjects, where small steps that hold the
GIL gain nothing from threads), and the chunk loops of the image sources
(`lattice.VolumePayload.stream`, which reads a volume payload straight into
its rows, and `lattice.ImageArray.stream`, which slices images in memory),
which feed `projection.project` and the squared image norms, when a pass
streams at least `PARALLEL_VALUES` image values (rows x values per row), on
as many threads as the process may use CPUs. A smaller pass runs on the
calling thread, however many chunks it is cut into: its per-row scatter
holds the GIL, so a second thread mostly waits and adds CPU time. Each
chunk is computed exactly as a serial loop would compute it, into rows of
its own, so the bits do not depend on the thread count.

The library is located and opened on first use; where it is missing or does
not export the functions, the limiter does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


class _Pool:
    """The get/set thread-count functions of numpy's OpenBLAS."""

    def __init__(self, path):
        lib = ctypes.CDLL(path)
        self.get = lib.scipy_openblas_get_num_threads64_
        self.get.argtypes, self.get.restype = [], ctypes.c_int
        self.set = lib.scipy_openblas_set_num_threads64_
        self.set.argtypes, self.set.restype = [ctypes.c_int], None


@functools.cache
def pool():
    """numpy's OpenBLAS pool, opened once per process, or None where it is
    not found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")))
    try:
        return _Pool(paths[0]) if paths else None
    except (OSError, AttributeError):
        return None


def pool_size():
    """The current thread count of numpy's OpenBLAS pool, or None."""
    found = pool()
    return None if found is None else found.get()


class _SingleThread(contextlib.ContextDecorator):
    """Reentrant, thread-safe pin of numpy's OpenBLAS pool to one thread.

    The outermost entry saves the pool size and sets it to 1; the outermost
    exit, normal or by exception, restores the saved size. Entries from
    several threads share one depth count, so the pool stays pinned until
    the last of them exits.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None  # (pool, size) while pinned

    def __enter__(self):
        with self._lock:
            if self._depth == 0 and (found := pool()) is not None:
                self._saved = (found, found.get())
                found.set(1)
            self._depth += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved is not None:
                found, size = self._saved
                found.set(size)
                self._saved = None
        return False


# The pool is process-wide, so there is exactly one limiter per process.
single_thread = _SingleThread()


# Chunk passes that stream fewer image values run on the calling thread.
# Measured on a 2-core x86-64 machine, pool pinned to one thread, median of
# 7 alternating runs, serial -> two threads (wall ms / CPU ms), for a
# volume payload's streamed projection (h=12 on cubes, each one uncropped
# slab, contracted as before slabs), its read and its squared norms:
#   15^3, n=500 (1.7M values, desk): projection 6.4/6.4 -> 6.7/10.5,
#     squared norms 3.1/3.1 -> 5.5/7.7;
#   25^3, n=500 (7.8M): projection 22.2/22.2 -> 16.8/28.6, read 5.9/5.9 ->
#     5.1/7.1, squared norms 10.7/10.7 -> 9.2/15.3;
#   32^3, n=500 (16.4M): projection 43.4/43.4 -> 29.7/52.1, read
#     23.1/23.1 -> 15.5/28.2, squared norms 23.4/23.4 -> 16.5/29.1;
#   the masked benchmark (315,481 voxels, n=200, h=8; 63M): projection
#     through slabs of at most 8 planes (`basis.Slab`), one product per
#     axis and slab, 346/345 -> 238/415, the medians of 15 alternating
#     measurements on a loaded machine (two threads saved a median 80 ms of
#     wall time for 69 ms of CPU time), read 106/106 -> 64/117.
# From about 16M values on, each of the three passes saves more wall time
# on two threads than it adds CPU time; below about 8M none does.
PARALLEL_VALUES = 1 << 24


def allowed_cpus() -> int:
    """The number of CPUs this process may run on (`os.sched_getaffinity`),
    or `os.cpu_count()` where affinity is not available."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def deal(work, items, count=None, buffers=tuple, values=0) -> list:
    """Deal `items` into `count` parts, part i being ``items[i::count]``, and
    return ``[work(part, *buffers()) for each part]`` in part order, each part
    run on a thread of its own.

    `count` is capped at ``len(items)``; without it, `items` are the chunk
    starts of a pass that streams `values` image values in all (rows x
    values per row), run on ``min(allowed_cpus(), len(items))`` threads when
    `values` is at least `PARALLEL_VALUES`, else on one. A lone part
    runs on the calling thread. `buffers` is called on the calling thread,
    once per part, so that the buffers it allocates come from that thread's
    heap, not from a malloc arena grown by a worker thread. When parts
    raise, the exception of the lowest failing part propagates once every
    part has finished.
    """
    if count is None:
        count = allowed_cpus() if values >= PARALLEL_VALUES else 1
    count = max(1, min(count, len(items)))
    parts = [(items[i::count], *buffers()) for i in range(count)]
    if count == 1:
        return [work(*parts[0])]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(lambda part: work(*part), parts))
