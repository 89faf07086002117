"""Thread control for the OpenBLAS copies bundled with numpy and scipy.

The numpy and scipy wheels each ship their own OpenBLAS, with its own
process-wide thread pool: numpy's ``numpy.libs/libscipy_openblas64_*.so``
exports ``scipy_openblas_{get,set}_num_threads64_`` and scipy's
``scipy.libs/libscipy_openblas-*.so`` the same names without the suffix.
The EM core makes thousands of small regressions, for which the pool's
workers cost more than they save and whose sums change with the pool size,
so `single_thread` pins both pools to one thread around a fit.

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
