"""Chaos matrix: injected read-path faults × retry budgets.

The contract under test is the acceptance criterion of the resilience
work: under any single injected fault mode, a query returns (within
its budget) either the correct answer, an accurate partial answer, or
a structured error carrying its retry accounting — never a wrong
answer and never a hang. The crash mode stays un-absorbable.
"""

import threading
import time

import pytest

from repro import QueryService
from repro.alphabet import dna_alphabet
from repro.disk import DiskSpineIndex
from repro.exceptions import (CircuitOpenError, DeadlineExceededError,
                              RetryExhaustedError, ServiceClosedError,
                              StorageError)
from repro.resilience import PartialResult, RetryPolicy
from repro.shard import ShardedSpineIndex
from repro.shard import index as shard_index_module
from repro.storage import (CrashInjected, clear_failpoints, fail_at,
                           failpoints_armed)

TEXT = "ACGTACGTTACGGTACAACGTTGCA" * 30
PATTERNS = ("ACGT", "GGTA", "TTGCA", "CAACG")


@pytest.fixture(autouse=True)
def _clean_failpoints():
    clear_failpoints()
    yield
    clear_failpoints()


def _disk_index(tmp_path, name="chaos.disk"):
    index = DiskSpineIndex(alphabet=dna_alphabet(),
                           path=str(tmp_path / name), buffer_pages=4)
    index.extend(TEXT)
    return index


def _drop_cache(index):
    index.pool.flush()
    index.pool.clear()


class TestReadFaultMatrix:
    """Every read-path fault mode × retry budget: correct answer or
    structured error, never a wrong answer."""

    @pytest.mark.parametrize("retries", [0, 1, 3])
    @pytest.mark.parametrize("faults", [1, 2, 5])
    def test_oserror_mode(self, tmp_path, retries, faults):
        index = _disk_index(tmp_path)
        expected = {p: index.find_all(p) for p in PATTERNS}
        index.pagefile.retry_policy = RetryPolicy(
            retries=retries, base_backoff=0.0, jitter=0.0)
        _drop_cache(index)
        with failpoints_armed("pager.read", mode="oserror", nth=1,
                              count=faults):
            for pattern in PATTERNS:
                try:
                    got = index.find_all(pattern)
                except RetryExhaustedError as exc:
                    # Only legal when the budget genuinely could not
                    # cover the fault burst, and the accounting must
                    # say how hard it tried.
                    assert faults > retries
                    assert exc.attempts == retries + 1
                    assert "read" in exc.site
                else:
                    assert got == expected[pattern], \
                        f"WRONG ANSWER for {pattern!r}"
        clear_failpoints()
        # The index recovers completely once the fault clears.
        _drop_cache(index)
        for pattern in PATTERNS:
            assert index.find_all(pattern) == expected[pattern]
        index.close()

    @pytest.mark.parametrize("faults", [1, 3])
    def test_stall_mode_is_slow_but_correct(self, tmp_path, faults):
        index = _disk_index(tmp_path)
        expected = index.find_all("ACGT")
        _drop_cache(index)
        with failpoints_armed("pager.read", mode="stall", nth=1,
                              count=faults, delay=0.01):
            assert index.find_all("ACGT") == expected
        index.close()

    def test_crash_mode_stays_unabsorbable(self, tmp_path):
        index = _disk_index(tmp_path)
        # A generous retry budget must NOT swallow a simulated crash.
        index.pagefile.retry_policy = RetryPolicy(
            retries=10, base_backoff=0.0, jitter=0.0)
        _drop_cache(index)
        with failpoints_armed("pager.read", mode="crash"):
            with pytest.raises(CrashInjected):
                index.find_all("ACGT")
        clear_failpoints()
        try:
            index.close()
        except Exception:
            pass  # a "crashed" handle may refuse an orderly close

    def test_eviction_fault_surfaces_unretried(self, tmp_path):
        # The eviction write-back contract predates the retry layer
        # and must survive it: the raw OSError propagates (no retry
        # absorbs it) and the victim stays resident.
        index = _disk_index(tmp_path)
        expected = index.find_all("ACGT")
        _drop_cache(index)
        with failpoints_armed("buffer.evict", mode="oserror",
                              nth=1, count=1):
            try:
                index.find_all("ACGT")
            except OSError as exc:
                assert not isinstance(exc, RetryExhaustedError)
        clear_failpoints()
        _drop_cache(index)
        assert index.find_all("ACGT") == expected
        index.close()


class TestDeadlineUnderFaults:
    def test_stalled_reads_bound_by_deadline(self, tmp_path):
        index = _disk_index(tmp_path)
        _drop_cache(index)
        svc = QueryService(index, threads=1)
        fail_at("pager.read", mode="stall", nth=1, count=10_000,
                delay=0.05)
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            svc.find_all("ACGT", deadline=0.05)
        took = time.monotonic() - started
        # Deadline plus one in-flight stalled read, not one stall per
        # page the query would have touched.
        assert took < 1.0
        clear_failpoints()
        svc.close()
        index.close()


class _FlakyShard:
    """Monkeypatches the shard fan-out so exactly one shard's queries
    fail with a storage error while the switch is on."""

    def __init__(self, monkeypatch, sharded, shard_id):
        self.failing = False
        self.target = sharded._shards[shard_id].index
        original = shard_index_module.search.find_all

        def flaky(index, pattern, limit=None, cancel=None):
            if self.failing and index is self.target:
                raise StorageError("injected shard fault")
            return original(index, pattern, limit, cancel)

        monkeypatch.setattr(shard_index_module.search,
                            "find_all", flaky)


class TestDegradedShardServing:
    def _build(self):
        return ShardedSpineIndex.build(TEXT, shards=4,
                                       max_pattern_len=8)

    def test_strict_mode_surfaces_the_fault(self, monkeypatch):
        sharded = self._build()
        flaky = _FlakyShard(monkeypatch, sharded, shard_id=1)
        flaky.failing = True
        with pytest.raises(StorageError):
            sharded.find_all("ACGT")
        sharded.close()

    def test_degraded_mode_returns_accurate_partial(self, monkeypatch):
        sharded = self._build()
        expected = sharded.find_all("ACGT")
        flaky = _FlakyShard(monkeypatch, sharded, shard_id=1)
        flaky.failing = True
        result = sharded.find_all_at("ACGT", len(sharded),
                                     degraded=True)
        assert isinstance(result, PartialResult)
        assert result.complete is False
        assert result.failed_shards == (1,)
        # Subset guarantee: everything listed is a real occurrence...
        assert set(result) <= set(expected)
        # ...and only the failed shard's contribution may be missing.
        healthy = [s for s in expected if s in result]
        assert healthy == list(result)
        flaky.failing = False
        recovered = sharded.find_all_at("ACGT", len(sharded),
                                        degraded=True)
        assert recovered.complete is True
        assert list(recovered) == expected
        sharded.close()

    def test_breaker_opens_then_recovers_via_probe(self, monkeypatch):
        sharded = self._build()
        expected = sharded.find_all("ACGT")
        sharded.enable_breakers(failure_threshold=2,
                                reset_timeout=0.2)
        flaky = _FlakyShard(monkeypatch, sharded, shard_id=1)
        flaky.failing = True
        # Two degraded queries record two failures: the breaker opens.
        for _ in range(2):
            result = sharded.find_all_at("ACGT", len(sharded),
                                         degraded=True)
            assert result.failed_shards == (1,)
        assert sharded.breaker(1).state == "open"
        # While open, degraded queries skip the shard instantly and
        # the rejection is visible in the error metadata.
        result = sharded.find_all_at("ACGT", len(sharded),
                                     degraded=True)
        assert isinstance(result.errors[1], CircuitOpenError)
        # The fault clears; after the reset timeout the next query is
        # admitted as a half-open probe and re-closes the breaker.
        flaky.failing = False
        time.sleep(0.25)
        recovered = sharded.find_all_at("ACGT", len(sharded),
                                        degraded=True)
        assert recovered.complete is True
        assert list(recovered) == expected
        assert sharded.breaker(1).state == "closed"
        sharded.close()

    def test_deadline_expiry_is_not_a_shard_failure(self, monkeypatch):
        sharded = self._build()
        sharded.enable_breakers(failure_threshold=1)
        with pytest.raises(DeadlineExceededError):
            svc = QueryService(sharded, threads=1)
            try:
                svc.find_all("ACGT", deadline=1e-9)
            finally:
                svc.close()
        # The client's budget says nothing about shard health.
        assert all(b.state == "closed"
                   for b in (sharded.breaker(i)
                             for i in range(sharded.shard_count)))
        sharded.close()

    def test_service_serves_partials_in_degraded_mode(self, monkeypatch):
        sharded = self._build()
        flaky = _FlakyShard(monkeypatch, sharded, shard_id=2)
        svc = QueryService(sharded, threads=2, degraded=True)
        expected = svc.find_all("ACGT")
        flaky.failing = True
        result = svc.find_all("ACGT")
        assert isinstance(result, PartialResult)
        assert result.complete is False
        assert result.failed_shards == (2,)
        # Per-call strict override beats the service default.
        with pytest.raises(StorageError):
            svc.find_all("ACGT", degraded=False)
        flaky.failing = False
        assert list(svc.find_all("ACGT")) == list(expected)
        svc.close()
        sharded.close()


class TestChaosUnderConcurrentLoad:
    def test_every_answer_correct_or_structured(self, tmp_path):
        """End-to-end: concurrent queries against a disk index with
        intermittent read faults and deadlines — every outcome is the
        right answer or a structured resilience error; the service
        then shuts down cleanly."""
        index = _disk_index(tmp_path)
        expected = {p: index.find_all(p) for p in PATTERNS}
        index.pagefile.retry_policy = RetryPolicy(
            retries=1, base_backoff=0.0, jitter=0.0)
        _drop_cache(index)
        svc = QueryService(index, threads=2, default_deadline=5.0)
        fail_at("pager.read", mode="oserror", nth=3, count=40)
        wrong = []
        structured = []
        unexpected = []

        def worker(worker_id):
            for i in range(25):
                pattern = PATTERNS[(worker_id + i) % len(PATTERNS)]
                try:
                    got = svc.find_all(pattern)
                except (RetryExhaustedError, DeadlineExceededError,
                        ServiceClosedError) as exc:
                    structured.append(type(exc).__name__)
                except BaseException as exc:  # noqa: BLE001
                    unexpected.append(repr(exc))
                else:
                    if got != expected[pattern]:
                        wrong.append((pattern, got))

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert unexpected == []
        clear_failpoints()
        svc.close()
        index.close()
