"""QueryService and SnapshotGuard (repro.serve)."""

import random
import threading
import time

import pytest

from repro import (QueryService, ServiceClosedError, SnapshotGuard,
                   SpineIndex)
from repro.core import find_all
from repro.obs.slowlog import slow_log_enabled

from tests.conftest import brute_occurrences


class TestSnapshotGuard:
    def test_guard_freezes_length(self):
        index = SpineIndex("abab")
        guard = SnapshotGuard(index)
        index.extend("ab")
        assert len(guard) == 4
        assert guard.find_all("ab") == [0, 2]
        assert guard.contains("babab") is False
        # A fresh guard sees the grown index.
        assert SnapshotGuard(index).find_all("ab") == [0, 2, 4]

    def test_guard_clamps_limit(self):
        index = SpineIndex("abab")
        assert SnapshotGuard(index, limit=100).limit == 4
        assert SnapshotGuard(index, limit=2).find_all("ab") == [0]

    def test_guard_batch(self):
        index = SpineIndex("aaccacaaca")
        guard = SnapshotGuard(index, limit=6)
        results = guard.batch_find_all(["ac", "ca", "zz"])
        assert [m.starts for m in results] == [[1, 4], [3], []]


class TestQueryService:
    def test_basic_serving(self):
        index = SpineIndex("aaccacaaca")
        with QueryService(index, threads=2) as svc:
            assert svc.contains("acca")
            assert svc.find_all("ac") == [1, 4, 7]
            results = svc.batch_find_all(["ac", "aacc", "zz"])
            assert [m.status for m in results] == \
                ["hit", "hit", "alphabet-miss"]

    def test_single_thread_service(self):
        index = SpineIndex("abab")
        with QueryService(index, threads=1) as svc:
            assert svc.find_all("ab") == [0, 2]

    def test_extend_serialized_and_visible(self):
        index = SpineIndex("ab")
        with QueryService(index, threads=2) as svc:
            svc.extend("ab")
            assert svc.find_all("ab") == [0, 2]

    def test_closed_service_rejects_work(self):
        svc = QueryService(SpineIndex("ab"))
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(RuntimeError):
            svc.batch_find_all(["a"])
        with pytest.raises(RuntimeError):
            svc.extend("a")

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            QueryService(SpineIndex("ab"), threads=0)

    def test_closed_service_raises_structured_error(self):
        svc = QueryService(SpineIndex("ab"))
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.batch_find_all(["a"])
        with pytest.raises(ServiceClosedError):
            svc.extend("a")

    def test_close_racing_batches_is_structured(self):
        """close() under load must never surface the executor's raw
        'cannot schedule new futures after shutdown' RuntimeError."""
        index = SpineIndex("aaccacaaca" * 50)
        patterns = ["ac", "ca", "aacc", "caaca", "accac", "aac"]
        svc = QueryService(index, threads=4)
        errors = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    svc.batch_find_all(patterns)
            except ServiceClosedError:
                pass  # the structured error is the contract
            except Exception as exc:
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for t in workers:
            t.start()
        svc.close()
        stop.set()
        for t in workers:
            t.join(timeout=30)
        assert not errors

    @pytest.mark.parametrize("op", ["find_all", "batch_find_all",
                                    "contains"])
    def test_slow_log_latency_includes_admission_wait(self, op):
        index = SpineIndex("aaccacaaca" * 20)
        hold_s = 0.2
        with slow_log_enabled(threshold=0.0) as log, \
                QueryService(index, threads=1, max_concurrent=1,
                             max_queue=1) as svc:
            slot = svc.admission.admit()
            releaser = threading.Thread(
                target=lambda: (time.sleep(hold_s), slot.__exit__()))
            releaser.start()
            try:
                if op == "find_all":
                    svc.find_all("acca")
                elif op == "contains":
                    svc.contains("acca")
                else:
                    svc.batch_find_all(["acca", "ca"])
            finally:
                releaser.join(timeout=5.0)
            assert not releaser.is_alive()
            records = [r for r in log.records() if r["op"] == op]
        assert len(records) == 1
        record = records[0]
        # The queued call waited for the held slot, and its logged
        # latency covers that wait plus the query itself.
        assert record["admission_wait_s"] >= hold_s / 2
        assert record["seconds"] >= record["admission_wait_s"] > 0


class TestGuardExecutorPrecedence:
    def test_guard_rejects_invalid_threads(self):
        guard = SnapshotGuard(SpineIndex("abab"))
        with pytest.raises(ValueError):
            guard.batch_find_all(["ab"], threads=0)
        with pytest.raises(ValueError):
            guard.batch_find_all(["ab"], threads=-3)

    def test_executor_wins_over_threads(self):
        """A passed executor is authoritative: its workers run the
        traversal phase even when threads=1 would otherwise mean
        'serial', and threads never resizes it."""
        from concurrent.futures import ThreadPoolExecutor

        index = SpineIndex("aaccacaaca")
        guard = SnapshotGuard(index)
        seen = set()

        class SpyExecutor(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                seen.add("mapped")
                return super().map(fn, *iterables, **kwargs)

        with SpyExecutor(max_workers=2) as pool:
            results = guard.batch_find_all(["ac", "ca"], threads=1,
                                           executor=pool)
        assert seen == {"mapped"}
        assert [m.starts for m in results] == [[1, 4, 7], [3, 5, 8]]

    def test_no_executor_threads_one_stays_serial(self):
        from repro.core.batch import batch_find_all

        index = SpineIndex("aaccacaaca")
        results = batch_find_all(index, ["ac", "ca"], threads=1)
        assert [m.starts for m in results] == [[1, 4, 7], [3, 5, 8]]

    def test_core_batch_rejects_invalid_threads(self):
        from repro.core.batch import batch_find_all

        with pytest.raises(ValueError):
            batch_find_all(SpineIndex("ab"), ["a"], threads=0)


class TestConcurrentExtend:
    """Snapshot reads during in-memory growth: every answer must be
    exactly correct for SOME prefix the writer had fully appended."""

    def test_queries_during_extend_see_consistent_prefixes(self):
        rng = random.Random(0xBEEF)
        text = "".join(rng.choice("ab") for _ in range(3000))
        seed = 64
        index = SpineIndex(text[:seed])
        patterns = ["ab", "ba", "aab", "abba", "babab"]
        oracle = {
            p: [brute_occurrences(text[:k], p)
                for k in range(len(text) + 1)]
            for p in patterns
        }
        errors = []
        stop = threading.Event()

        def reader():
            local = random.Random(threading.get_ident())
            try:
                while not stop.is_set():
                    guard = SnapshotGuard(index)
                    k = guard.limit
                    pattern = local.choice(patterns)
                    got = guard.find_all(pattern)
                    if got != oracle[pattern][k]:
                        errors.append((pattern, k, got))
                        return
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for pos in range(seed, len(text), 7):
                index.extend(text[pos:pos + 7])
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not errors
        assert find_all(index, "ab") == brute_occurrences(text, "ab")
