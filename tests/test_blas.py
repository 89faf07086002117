import sys
import threading
import time

import pytest

from lasir import _blas


@pytest.fixture
def pool_at_two():
    """numpy's OpenBLAS pool set to 2 threads for the test, then put back."""
    pool = _blas.pool()
    if pool is None:
        pytest.skip("numpy's OpenBLAS not found")
    before = pool.get()
    pool.set(2)
    yield pool
    pool.set(before)


def test_numpy_pool_found(pool_at_two):
    assert _blas.pool() is pool_at_two
    assert _blas.pool_size() == 2
    pool_at_two.set(1)
    assert _blas.pool_size() == 1


def test_pins_and_restores_on_normal_exit(pool_at_two):
    with _blas.single_thread:
        assert pool_at_two.get() == 1
    assert pool_at_two.get() == 2


def test_restores_after_exception(pool_at_two):
    with pytest.raises(KeyError):
        with _blas.single_thread:
            raise KeyError("boom")
    assert pool_at_two.get() == 2

    @_blas.single_thread
    def failing():
        assert pool_at_two.get() == 1
        raise KeyError("boom")

    with pytest.raises(KeyError):
        failing()
    assert pool_at_two.get() == 2


def test_nested_entry_keeps_pin_until_outermost_exit(pool_at_two):
    with _blas.single_thread:
        with _blas.single_thread:
            assert pool_at_two.get() == 1
        assert pool_at_two.get() == 1
    assert pool_at_two.get() == 2


def test_concurrent_entries_restore_initial_sizes(pool_at_two):
    stop = time.monotonic() + 1.0
    unpinned = []

    def worker():
        while time.monotonic() < stop:
            with _blas.single_thread:
                size = pool_at_two.get()
                if size != 1:
                    unpinned.append(size)
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
    assert pool_at_two.get() == 2


def test_no_libraries_means_no_effect(pool_at_two, monkeypatch):
    monkeypatch.setattr(_blas, "pool", lambda: None)
    assert _blas.pool_size() is None
    with _blas.single_thread:
        assert pool_at_two.get() == 2
    assert pool_at_two.get() == 2
