"""Buffer pool and replacement policy tests."""

import pytest

from repro.exceptions import StorageError
from repro.storage import (
    BufferPool, ClockPolicy, LRUPolicy, PageFile, PinTopPolicy)


def make_pool(capacity=2, pages=6, page_size=64, policy=None):
    pf = PageFile(page_size=page_size)
    for _ in range(pages):
        pf.allocate_page()
    return pf, BufferPool(pf, capacity, policy)


class TestBufferPool:
    def test_hit_avoids_physical_read(self):
        pf, pool = make_pool()
        pool.get(0)
        pool.get(0)
        assert pf.metrics.reads == 1
        assert pf.metrics.buffer_hits == 1

    def test_eviction_under_pressure(self):
        pf, pool = make_pool(capacity=2)
        pool.get(0)
        pool.get(1)
        pool.get(2)  # evicts page 0 (LRU)
        assert len(pool) == 2
        assert pf.metrics.evictions == 1
        pool.get(0)  # must re-read
        assert pf.metrics.reads == 4

    def test_dirty_page_written_back_on_eviction(self):
        pf, pool = make_pool(capacity=1)
        frame = pool.get(0)
        frame[0] = 42
        pool.mark_dirty(0)
        pool.get(1)  # evict 0 -> write-back
        assert pf.metrics.writes == 1
        assert pf.read_page(0)[0] == 42

    def test_clean_page_evicted_silently(self):
        pf, pool = make_pool(capacity=1)
        pool.get(0)
        pool.get(1)
        assert pf.metrics.writes == 0

    def test_flush_writes_ascending(self):
        pf, pool = make_pool(capacity=4)
        for pid in (3, 1, 2):
            pool.get(pid)
            pool.mark_dirty(pid)
        pool.flush()
        assert pf.metrics.writes == 3
        # Ascending write-back: 1 -> 2 -> 3 produces sequential pairs.
        assert pf.metrics.sequential_writes >= 2

    def test_mark_dirty_requires_residency(self):
        _, pool = make_pool()
        with pytest.raises(StorageError):
            pool.mark_dirty(5)

    def test_load_false_skips_read(self):
        pf, pool = make_pool()
        frame = pool.get(0, load=False)
        assert pf.metrics.reads == 0
        assert frame == bytearray(64)

    def test_clear_flushes_and_drops(self):
        pf, pool = make_pool(capacity=4)
        pool.get(0)
        pool.mark_dirty(0)
        pool.clear()
        assert len(pool) == 0
        assert pf.metrics.writes == 1

    def test_invalid_capacity(self):
        pf = PageFile(page_size=64)
        with pytest.raises(StorageError):
            BufferPool(pf, 0)


class TestPolicies:
    def test_lru_order(self):
        policy = LRUPolicy()
        for pid in (1, 2, 3):
            policy.touch(pid)
        policy.touch(1)  # refresh
        assert policy.evict() == 2

    def test_lru_empty_evict(self):
        with pytest.raises(StorageError):
            LRUPolicy().evict()

    def test_clock_second_chance(self):
        policy = ClockPolicy()
        policy.touch(1)
        policy.touch(2)
        # Both referenced; first sweep clears bits, then 1 goes.
        assert policy.evict() == 1

    def test_clock_empty_evict(self):
        with pytest.raises(StorageError):
            ClockPolicy().evict()

    def test_pintop_protects_members(self):
        protected = {0, 1}
        policy = PinTopPolicy(protected)
        for pid in (0, 1, 5, 6):
            policy.touch(pid)
        assert policy.evict() == 5
        assert policy.evict() == 6
        # Only protected pages left: newest protected goes first.
        assert policy.evict() in (0, 1)

    def test_pintop_dynamic_protection(self):
        protected = set()
        policy = PinTopPolicy(protected)
        policy.touch(3)
        protected.add(4)
        policy.touch(4)
        assert policy.evict() == 3

    def test_pintop_protect_rebuilds_in_place(self):
        protected = {0, 1}
        policy = PinTopPolicy(protected)
        for pid in (0, 1, 5):
            policy.touch(pid)
        policy.protect([1, 2])
        assert policy.protected_pages is protected
        assert protected == {1, 2}
        # Page 0 left the set: it rejoins the LRU order as least recent.
        assert policy.evict() == 0
        assert policy.evict() == 5
        assert policy.evict() == 1

    def test_forget(self):
        policy = LRUPolicy()
        policy.touch(1)
        policy.forget(1)
        with pytest.raises(StorageError):
            policy.evict()


class TestPinTopPressure:
    def test_protected_pages_survive_scan_pressure(self):
        from repro.storage import PinTopPolicy

        protected = {0, 1, 2}
        pf = PageFile(page_size=64)
        for _ in range(40):
            pf.allocate_page()
        pool = BufferPool(pf, 6, PinTopPolicy(protected))
        for pid in (0, 1, 2):
            pool.get(pid)
        # A long scan must not evict the protected trio.
        for pid in range(3, 40):
            pool.get(pid)
        for pid in (0, 1, 2):
            pool.get(pid)
        # 3 initial loads + 37 scan loads + 0 reloads for protected.
        assert pf.metrics.reads == 40

    def test_protected_evicted_only_under_total_pressure(self):
        from repro.storage import PinTopPolicy

        protected = {0, 1, 2, 3}
        pf = PageFile(page_size=64)
        for _ in range(8):
            pf.allocate_page()
        pool = BufferPool(pf, 2, PinTopPolicy(protected))
        pool.get(0)
        pool.get(1)
        pool.get(2)  # must evict a protected page (nothing else held)
        assert len(pool) == 2


class TestWritebackOrdering:
    def test_eviction_writeback_preserves_latest_contents(self):
        pf = PageFile(page_size=64)
        for _ in range(3):
            pf.allocate_page()
        pool = BufferPool(pf, 1)
        frame = pool.get(0, load=False)
        frame[5] = 77
        pool.mark_dirty(0)
        pool.get(1)           # evicts and writes back page 0
        frame = pool.get(0)   # re-read from "disk"
        assert frame[5] == 77

    def test_repeated_dirty_single_writeback(self):
        pf = PageFile(page_size=64)
        pf.allocate_page()
        pool = BufferPool(pf, 2)
        frame = pool.get(0, load=False)
        for value in range(5):
            frame[0] = value
            pool.mark_dirty(0)
        pool.flush()
        assert pf.metrics.writes == 1
        assert pf.read_page(0)[0] == 4


class TestPinTopLateProtection:
    """Regression: a page touched before its id entered the mutable
    protected set used to stay in the plain LRU queue and be evicted
    like any unprotected page."""

    def test_policy_reclassifies_late_protected_page(self):
        protected = set()
        policy = PinTopPolicy(protected)
        policy.touch(0)          # touched while still unprotected
        policy.touch(1)
        protected.add(0)         # protection arrives late
        assert policy.evict() == 1
        # Page 0 must now be protected-resident, not gone: with only
        # it left, eviction falls back to the protected set.
        assert policy.evict() == 0

    def test_pool_keeps_late_protected_page_under_pressure(self):
        protected = set()
        pf, pool = make_pool(capacity=2, pages=6,
                             policy=PinTopPolicy(protected))
        pool.get(0)              # enters the pool unprotected
        protected.add(0)         # e.g. the LT grew into this page
        pool.get(1)
        pool.get(2)              # pressure: must evict 1, never 0
        pool.get(3)              # more pressure: must evict 2
        assert 0 in pool._frames
        pf.metrics.reset()
        pool.get(0)
        assert pf.metrics.reads == 0  # still resident: buffer hit


class TestPinning:
    def test_pinned_page_survives_pressure(self):
        pf, pool = make_pool(capacity=2, pages=6)
        pool.get(0)
        pool.pin(0)
        for page_id in (1, 2, 3, 4):
            pool.get(page_id)
        assert 0 in pool._frames
        pool.unpin(0)
        pool.get(5)
        pool.get(1)   # now 0 is evictable again
        assert len(pool) == 2

    def test_all_pinned_raises_clean_error(self):
        pf, pool = make_pool(capacity=2, pages=6)
        pool.get(0)
        pool.pin(0)
        pool.get(1)
        pool.pin(1)
        with pytest.raises(StorageError, match="pinned"):
            pool.get(2)
        pool.unpin(0)
        pool.get(2)   # page 0 may now be evicted
        assert 1 in pool._frames

    def test_pin_counts_nest(self):
        pf, pool = make_pool()
        pool.get(0)
        pool.pin(0)
        pool.pin(0)
        assert pool.pin_count(0) == 2
        pool.unpin(0)
        assert pool.pin_count(0) == 1
        pool.unpin(0)
        assert pool.pin_count(0) == 0
        with pytest.raises(StorageError):
            pool.unpin(0)

    def test_pin_requires_residency(self):
        pf, pool = make_pool()
        with pytest.raises(StorageError):
            pool.pin(3)

    def test_pinned_context_manager(self):
        pf, pool = make_pool(capacity=2, pages=6)
        with pool.pinned(0) as frame:
            assert frame is pool._frames[0]
            assert pool.pin_count(0) == 1
        assert pool.pin_count(0) == 0

    def test_clear_refuses_with_outstanding_pins(self):
        pf, pool = make_pool()
        pool.get(0)
        pool.pin(0)
        with pytest.raises(StorageError, match="pinned"):
            pool.clear()
        pool.unpin(0)
        pool.clear()
        assert len(pool) == 0


class TestReadWriteLock:
    def test_multiple_concurrent_readers(self):
        import threading

        from repro.storage import ReadWriteLock

        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()   # all three readers in simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        import threading
        import time

        from repro.storage import ReadWriteLock

        lock = ReadWriteLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                time.sleep(0.05)
                order.append("write")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read_locked():
                order.append("read")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        tw.join(timeout=5)
        tr.join(timeout=5)
        assert order == ["write", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        import threading

        from repro.storage import ReadWriteLock

        lock = ReadWriteLock()
        lock.acquire_read()
        got_write = threading.Event()

        def writer():
            with lock.write_locked():
                got_write.set()

        tw = threading.Thread(target=writer)
        tw.start()
        # Give the writer a moment to queue, then release the reader:
        # the writer must get in (writer preference).
        import time
        time.sleep(0.02)
        lock.release_read()
        assert got_write.wait(timeout=5)
        tw.join(timeout=5)


class TestThreadSafetyToggle:
    def test_enable_is_idempotent(self):
        pf, pool = make_pool()
        assert pool.thread_safe is False
        pool.enable_thread_safety()
        latch = pool._latch
        pool.enable_thread_safety()
        assert pool._latch is latch
        assert pool.thread_safe is True

    def test_concurrent_readers_share_pool(self):
        import threading

        pf, pool = make_pool(capacity=2, pages=8)
        pool.enable_thread_safety()
        errors = []

        def reader(seed):
            try:
                for i in range(200):
                    page_id = (seed + i) % 8
                    with pool.pinned(page_id) as frame:
                        assert frame is not None
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(pool) <= 2
