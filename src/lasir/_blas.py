"""Thread control for the OpenBLAS copies bundled with numpy and scipy.

The numpy and scipy wheels each ship their own OpenBLAS, with its own
process-wide thread pool: numpy's ``numpy.libs/libscipy_openblas64_*.so``
exports ``scipy_openblas_{get,set}_num_threads64_`` and scipy's
``scipy.libs/libscipy_openblas-*.so`` the same names without the suffix.
The EM core makes thousands of small regressions, for which the pool's
workers cost more than they save and whose sums change with the pool size,
so `single_thread` pins both pools to one thread around a fit.

Parallelism comes from Python threads instead, each running its own BLAS
calls: `deal` splits work into parts, one thread each. It runs the replicate
stacks of a fit (`select_k` runs each candidate as one stack on the calling
thread below `selection.THREADED_N` subjects, where small steps that hold the
GIL gain nothing from threads), and the chunk loops of the image sources
(`lattice.VolumePayload.stream`, which reads a volume payload straight into
its rows, and `lattice.ImageArray.stream`, which slices images in memory),
which feed `projection.project` and the squared image norms, when a pass
has at least `PARALLEL_CHUNKS` chunks, on as many threads as the process
may use CPUs. Each chunk is computed exactly as a serial loop would compute
it, into rows of its own, so the bits do not depend on the thread count.

The libraries are located and opened on first use; a copy that is missing or
does not export the functions is skipped, and with none found the limiter
does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# (package, library glob inside <package>.libs, symbol suffix)
_BUNDLED = (("numpy", "libscipy_openblas64_*.so", "64_"),
            ("scipy", "libscipy_openblas-*.so", ""))


class _Pool:
    """The get/set thread-count functions of one bundled OpenBLAS."""

    def __init__(self, package, path, suffix):
        lib = ctypes.CDLL(path)
        self.package = package
        self.get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        self.get.argtypes, self.get.restype = [], ctypes.c_int
        self.set = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        self.set.argtypes, self.set.restype = [ctypes.c_int], None


@functools.cache
def pools() -> tuple:
    """The bundled OpenBLAS pools found, opened once per process."""
    found = []
    for package, pattern, suffix in _BUNDLED:
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        libdir = os.path.join(os.path.dirname(spec.submodule_search_locations[0]),
                              package + ".libs")
        paths = sorted(glob.glob(os.path.join(libdir, pattern)))
        if not paths:
            continue
        try:
            found.append(_Pool(package, paths[0], suffix))
        except (OSError, AttributeError):
            continue
    return tuple(found)


def pool_sizes() -> dict:
    """Current thread count of each bundled OpenBLAS pool, keyed by package."""
    return {pool.package: pool.get() for pool in pools()}


class _SingleThread(contextlib.ContextDecorator):
    """Reentrant, thread-safe pin of every bundled pool to one thread.

    The outermost entry saves the pool sizes and sets them to 1; the
    outermost exit, normal or by exception, restores the saved sizes. Entries
    from several threads share one depth count, so the pools stay pinned
    until the last of them exits.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((pool, pool.get()) for pool in pools())
                for pool, _ in self._saved:
                    pool.set(1)
            self._depth += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for pool, size in self._saved:
                    pool.set(size)
                self._saved = ()
        return False


# The pools are process-wide, so there is exactly one limiter per process.
single_thread = _SingleThread()


# Chunk passes with fewer chunks run on the calling thread. On a 2-core
# x86-64 machine, a second thread took the benchmark's desk projection (15^3,
# n=500: 4 chunks) from 11.6-11.9 ms to 10.6-11.4 ms, while the worker
# thread's malloc arena raised the desk pass's peak RSS from 116 to 126 MB;
# it took the masked read (50 chunks) from 0.28 to 0.17 s and the masked
# projection (200 chunks) from 0.29 to 0.16 s.
PARALLEL_CHUNKS = 8


def allowed_cpus() -> int:
    """The number of CPUs this process may run on (`os.sched_getaffinity`),
    or `os.cpu_count()` where affinity is not available."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def deal(work, items, count=None, buffers=tuple) -> list:
    """Deal `items` into `count` parts, part i being ``items[i::count]``, and
    return ``[work(part, *buffers()) for each part]`` in part order, each part
    run on a thread of its own.

    `count` is capped at ``len(items)``; without it, `items` are the chunk
    starts of a pass, run on ``min(allowed_cpus(), len(items))`` threads when
    there are at least `PARALLEL_CHUNKS` of them, else on one. A lone part
    runs on the calling thread. `buffers` is called on the calling thread,
    once per part, so that the buffers it allocates come from that thread's
    heap, not from a malloc arena grown by a worker thread. When parts
    raise, the exception of the lowest failing part propagates once every
    part has finished.
    """
    if count is None:
        count = allowed_cpus() if len(items) >= PARALLEL_CHUNKS else 1
    count = max(1, min(count, len(items)))
    parts = [(items[i::count], *buffers()) for i in range(count)]
    if count == 1:
        return [work(*parts[0])]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(lambda part: work(*part), parts))
