"""Suite-wide test configuration: hypothesis profiles.

The default ``lasir`` profile makes every run of the suite check the same
cases in a bounded time: property tests draw their examples from a fixed
seed (``derandomize``), keep no example database, have no per-example
deadline (timings on a shared machine vary) and run 25 examples each.

The ``thorough`` profile, selected with ``pytest --hypothesis-profile=thorough``,
draws 2,000 fresh random examples per property test, with no database and
no deadline, to search for cases the fixed draw misses.

The ``allow_cpus`` fixture sets the CPU count that chunk passes deal their
chunks to, and records the thread pools they start.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import settings

from lasir import _blas

settings.register_profile("lasir", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.register_profile("thorough", database=None, deadline=None, max_examples=2000)
settings.load_profile("lasir")


@pytest.fixture
def allow_cpus(monkeypatch):
    """`allow_cpus(count)` makes `_blas.deal` see `count` allowed CPUs and
    returns a list to which each thread pool `deal` makes from then on adds
    its `max_workers`, the most threads it can start."""
    pools = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    def allow(count):
        monkeypatch.setattr(_blas, "allowed_cpus", lambda: count)
        monkeypatch.setattr(_blas, "ThreadPoolExecutor", Recorded)
        pools.clear()
        return pools

    return allow
