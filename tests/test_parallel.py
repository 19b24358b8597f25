"""Unit tests for the process-pool helpers in :mod:`repro.parallel`."""

from repro.parallel import PersistentPool


def test_recover_drops_only_the_live_executor():
    pool = PersistentPool(1)
    try:
        first = pool.executor()
        assert pool.recover(first) is True
        second = pool.executor()
        assert second is not first
        # A second report of the same crash names the replaced executor:
        # the healthy pool is kept.
        assert pool.recover(first) is False
        assert pool.executor() is second
    finally:
        pool.close()
