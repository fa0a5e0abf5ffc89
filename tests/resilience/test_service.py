"""QueryService resilience: deadlines, admission, bounded shutdown.

The bounded-close tests pin a query inside a storage stall (the
``stall`` failpoint mode) — the pathological case ``close()`` must not
wait out: the service abandons the stuck call after ``close_timeout``
and the call itself fails its token's next poll with a structured
shutdown error.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import QueryService, SnapshotGuard, SpineIndex
from repro.alphabet import dna_alphabet
from repro.disk import DiskSpineIndex
from repro.exceptions import (DeadlineExceededError, OverloadedError,
                              ServiceClosedError)
from repro.obs.slowlog import get_slow_log
from repro.storage import clear_failpoints, fail_at

TEXT = "ACGTACGTTACGGTACAACGT" * 40


@pytest.fixture(autouse=True)
def _clean_failpoints():
    clear_failpoints()
    yield
    clear_failpoints()


class TestDeadlines:
    def test_generous_deadline_answers_correctly(self):
        index = SpineIndex(TEXT)
        with QueryService(index, threads=2) as svc:
            expected = index.find_all("ACGT")
            assert svc.find_all("ACGT", deadline=30.0) == expected
            assert svc.contains("TACG", deadline=30.0)
            results = svc.batch_find_all(["ACGT", "GGTA"], deadline=30.0)
            assert results[0].starts == expected

    def test_expired_deadline_is_a_structured_error(self):
        index = SpineIndex(TEXT)
        with QueryService(index, threads=2) as svc:
            with pytest.raises(DeadlineExceededError) as err:
                svc.find_all("ACGT", deadline=1e-9)
            assert err.value.op == "find_all"
            with pytest.raises(DeadlineExceededError):
                svc.batch_find_all(["ACGT", "GGTA"], deadline=1e-9)
            # The service stays healthy after a timeout.
            assert svc.find_all("ACGT") == index.find_all("ACGT")

    def test_service_default_deadline(self):
        index = SpineIndex(TEXT)
        with QueryService(index, threads=1,
                          default_deadline=1e-9) as svc:
            with pytest.raises(DeadlineExceededError):
                svc.find_all("ACGT")
            # A per-call budget overrides the stingy default.
            assert svc.find_all("ACGT", deadline=30.0) == \
                index.find_all("ACGT")

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            QueryService(SpineIndex("AC"), default_deadline=0)
        with pytest.raises(ValueError):
            QueryService(SpineIndex("AC"), default_deadline=-1.0)

    def test_timed_out_query_tagged_in_slow_log(self):
        index = SpineIndex(TEXT)
        slow_log = get_slow_log()
        slow_log.enable(threshold=0.0)
        try:
            with QueryService(index, threads=1) as svc:
                with pytest.raises(DeadlineExceededError):
                    svc.find_all("ACGT", deadline=1e-9)
            records = slow_log.snapshot()["records"]
            timed_out = [r for r in records if r.get("timed_out")]
            assert timed_out
            assert timed_out[0]["op"] == "find_all"
        finally:
            slow_log.disable()

    def test_slow_log_records_answers_and_deadlines_only(self,
                                                         monkeypatch):
        index = SpineIndex(TEXT)
        slow_log = get_slow_log()
        slow_log.enable(threshold=0.0)
        slow_log.clear()
        try:
            with QueryService(index, threads=1) as svc:
                assert svc.contains("TACG")
                with pytest.raises(DeadlineExceededError):
                    svc.find_all("ACGT", deadline=1e-9)
                monkeypatch.setattr(
                    SnapshotGuard, "contains",
                    lambda *a, **k: (_ for _ in ()).throw(KeyError("x")))
                with pytest.raises(KeyError):
                    svc.contains("TACG")
            records = slow_log.records()
        finally:
            slow_log.disable()
            slow_log.clear()
        # A failing query that is not a deadline leaves no record.
        assert len(records) == 2
        answered, late = records
        assert list(answered) == ["ts", "op", "seconds",
                                  "admission_wait_s", "layer",
                                  "pattern_chars", "found"]
        assert answered["found"] is True
        assert list(late) == ["ts", "op", "seconds", "admission_wait_s",
                              "timed_out", "layer", "pattern_chars"]
        assert late["timed_out"] is True


class TestAdmission:
    def test_overload_sheds_with_structured_error(self):
        index = SpineIndex(TEXT)
        svc = QueryService(index, threads=2, max_concurrent=1,
                           max_queue=0)
        release = threading.Event()
        entered = threading.Event()
        original = svc.snapshot

        def stalling_snapshot():
            guard = original()
            entered.set()
            release.wait(5.0)
            return guard

        svc.snapshot = stalling_snapshot
        holder = threading.Thread(
            target=lambda: svc.contains("ACGT"))
        holder.start()
        try:
            assert entered.wait(5.0)
            with pytest.raises(OverloadedError):
                svc.contains("TACG")
        finally:
            release.set()
            holder.join(timeout=5.0)
            svc.snapshot = original
            svc.close()

    def test_unconfigured_service_has_no_gate(self):
        with QueryService(SpineIndex(TEXT), threads=1) as svc:
            assert svc.admission is None


class TestBoundedClose:
    def _disk_index(self, tmp_path):
        index = DiskSpineIndex(alphabet=dna_alphabet(),
                               path=str(tmp_path / "spine.disk"),
                               buffer_pages=4)
        index.extend(TEXT)
        return index

    def test_close_returns_despite_stuck_query(self, tmp_path):
        index = self._disk_index(tmp_path)
        svc = QueryService(index, threads=2, close_timeout=0.2)
        # Drop the cache so queries do physical reads, then make every
        # read stall long enough to straddle the close.
        index.pool.flush()
        index.pool.clear()
        fail_at("pager.read", mode="stall", nth=1, count=10_000,
                delay=0.15)
        outcome = {}

        def stuck_query():
            try:
                outcome["result"] = svc.find_all("ACGT")
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=stuck_query)
        thread.start()
        time.sleep(0.1)  # let the query reach a stalled read
        started = time.monotonic()
        svc.close()
        close_took = time.monotonic() - started
        # Bounded: close_timeout plus modest overhead, not the sum of
        # every remaining stalled read.
        assert close_took < 2.0
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        clear_failpoints()
        index.close()
        # The abandoned query noticed the shutdown at its next poll.
        assert "result" not in outcome
        assert isinstance(outcome["error"], ServiceClosedError)

    def test_close_waits_for_fast_inflight_queries(self):
        index = SpineIndex(TEXT)
        svc = QueryService(index, threads=2, close_timeout=5.0)
        release = threading.Event()
        entered = threading.Event()
        original = svc.snapshot

        def gated_snapshot():
            guard = original()
            entered.set()
            release.wait(5.0)
            return guard

        svc.snapshot = gated_snapshot
        outcome = {}

        def query():
            try:
                outcome["result"] = svc.find_all("ACGT")
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=query)
        thread.start()
        assert entered.wait(5.0)
        svc.snapshot = original
        closer = threading.Thread(target=svc.close)
        closer.start()
        time.sleep(0.05)
        assert svc.inflight == 1  # close is draining, not done
        release.set()
        closer.join(timeout=5.0)
        thread.join(timeout=5.0)
        assert svc.inflight == 0

    def test_close_is_idempotent_and_structured_afterwards(self):
        svc = QueryService(SpineIndex(TEXT), threads=1)
        svc.close()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.find_all("ACGT")
        with pytest.raises(ServiceClosedError):
            svc.contains("ACGT")


class TestExecutorContract:
    """Satellite: threads/executor precedence and closed-executor
    rejection on the snapshot surface."""

    def test_invalid_threads_rejected_even_with_executor(self):
        guard = SnapshotGuard(SpineIndex(TEXT))
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(ValueError):
                guard.batch_find_all(["ACGT"], threads=0, executor=pool)

    def test_shutdown_executor_rejected_structurally(self):
        guard = SnapshotGuard(SpineIndex(TEXT))
        pool = ThreadPoolExecutor(max_workers=2)
        pool.shutdown()
        with pytest.raises(ServiceClosedError):
            guard.batch_find_all(["ACGT"], threads=2, executor=pool)

    def test_live_executor_is_authoritative(self):
        index = SpineIndex(TEXT)
        guard = SnapshotGuard(index)
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = guard.batch_find_all(["ACGT", "GGTA"],
                                           threads=1, executor=pool)
        assert results[0].starts == index.find_all("ACGT")
