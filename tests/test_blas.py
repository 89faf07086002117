import sys
import threading
import time

import pytest

from lasir import _blas


@pytest.fixture
def pools_at_two():
    """Both bundled pools set to 2 threads for the test, then put back."""
    pools = _blas.pools()
    if not pools:
        pytest.skip("no bundled OpenBLAS found")
    before = [pool.get() for pool in pools]
    for pool in pools:
        pool.set(2)
    yield pools
    for pool, size in zip(pools, before):
        pool.set(size)


def _sizes(pools):
    return [pool.get() for pool in pools]


def test_both_bundled_pools_found():
    assert {pool.package for pool in _blas.pools()} == {"numpy", "scipy"}


def test_pins_and_restores_on_normal_exit(pools_at_two):
    with _blas.single_thread:
        assert _sizes(pools_at_two) == [1, 1]
    assert _sizes(pools_at_two) == [2, 2]


def test_restores_after_exception(pools_at_two):
    with pytest.raises(KeyError):
        with _blas.single_thread:
            raise KeyError("boom")
    assert _sizes(pools_at_two) == [2, 2]

    @_blas.single_thread
    def failing():
        assert _sizes(pools_at_two) == [1, 1]
        raise KeyError("boom")

    with pytest.raises(KeyError):
        failing()
    assert _sizes(pools_at_two) == [2, 2]


def test_nested_entry_keeps_pin_until_outermost_exit(pools_at_two):
    with _blas.single_thread:
        with _blas.single_thread:
            assert _sizes(pools_at_two) == [1, 1]
        assert _sizes(pools_at_two) == [1, 1]
    assert _sizes(pools_at_two) == [2, 2]


def test_concurrent_entries_restore_initial_sizes(pools_at_two):
    stop = time.monotonic() + 1.0
    unpinned = []

    def worker():
        while time.monotonic() < stop:
            with _blas.single_thread:
                sizes = _sizes(pools_at_two)
                if sizes != [1, 1]:
                    unpinned.append(sizes)
            time.sleep(0)  # let the other threads' entries and exits interleave

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert unpinned == []
    assert _sizes(pools_at_two) == [2, 2]


def test_no_libraries_means_no_effect(pools_at_two, monkeypatch):
    monkeypatch.setattr(_blas, "pools", lambda: ())
    assert _blas.pool_sizes() == {}
    with _blas.single_thread:
        assert _sizes(pools_at_two) == [2, 2]
    assert _sizes(pools_at_two) == [2, 2]
