"""The per-query scope and the per-thread active span.

Every query verb opens its span, starts its clock and closes both
through ``repro.obs.query_scope``; the engine and the storage layers
record into the calling thread's active span. These tests pin the
scope's close rules, that a raising verb never leaves its span active,
and that concurrent queries never record into each other's spans.
"""

import random
import sys
import threading

import pytest

from repro import obs
from repro.alphabet import dna_alphabet
from repro.check import differential
from repro.check.generators import generate_scenario
from repro.core import matching, search
from repro.core.index import SpineIndex
from repro.disk import DiskSpineIndex
from repro.exceptions import (CorruptPageError, DeadlineExceededError,
                              ServiceClosedError)
from repro.obs import NULL_SCOPE, metrics_enabled, query_scope
from repro.obs.trace import Tracer, get_tracer, tracing_enabled
from repro.sequences import generate_dna
from repro.shard import ShardedSpineIndex
from repro.storage.scrub import Scrubber

TEXT = generate_dna(800, seed=32)


class TestQueryScope:
    def test_null_scope_while_nothing_observes(self):
        assert not obs.get_registry().enabled
        assert not get_tracer().enabled
        scope = query_scope("x", latency="x", pattern="ac")
        assert scope is NULL_SCOPE
        with scope as entered:
            entered.close("hit", found=True)
        assert scope.span is None and scope.metrics is None

    def test_unsampled_query_without_metrics_is_null(self):
        with tracing_enabled(sample_every=2) as tracer:
            with query_scope("first"):
                pass
            assert query_scope("second") is NULL_SCOPE
        assert [s.op for s in tracer.spans] == ["first"]

    @pytest.mark.parametrize("exc, status", [
        (DeadlineExceededError("late"), "cancelled"),
        (ServiceClosedError("closed"), "cancelled"),
        (KeyError("x"), "error"),
    ])
    def test_raising_block_closes_span(self, exc, status):
        with metrics_enabled() as registry, tracing_enabled() as tracer:
            with pytest.raises(type(exc)):
                with query_scope("op", latency="op", pattern="ac"):
                    raise exc
            assert tracer.active is None
            # No latency is observed for a query that did not answer.
            assert registry.timer("op.seconds").count == 0
        span = tracer.spans[-1]
        assert span.status == status
        assert span.attrs == {"pattern": "ac",
                              "error": type(exc).__name__}

    def test_latency_observed_once(self):
        with metrics_enabled() as registry:
            with query_scope("op", latency="op", timer="op.timer") \
                    as scope:
                scope.close("hit")
                scope.close("miss")
            assert registry.timer("op.seconds").count == 1
            assert registry.timer("op.timer").count == 1
            with query_scope("op", latency="op"):
                pass
            assert registry.timer("op.seconds").count == 2

    def test_exit_closes_an_unclosed_scope(self):
        with tracing_enabled() as tracer:
            with query_scope("op", n=1):
                pass
        assert tracer.spans[-1].attrs == {"n": 1}
        assert tracer.spans[-1].duration is not None


class TestRaisingVerbsCloseTheirSpan:
    def test_matching_statistics_memory(self, monkeypatch):
        index = SpineIndex(TEXT)

        def broken(self, node):
            raise RuntimeError("link read failed")

        monkeypatch.setattr(SpineIndex, "link", broken)
        with tracing_enabled() as tracer:
            with pytest.raises(RuntimeError):
                matching.matching_statistics(index, "TTTTTTTTGGGGGGGG")
            assert tracer.active is None
        span = tracer.spans[-1]
        assert span.op == "matching.statistics"
        assert (span.status, span.attrs["error"]) == ("error",
                                                      "RuntimeError")

    def test_matching_statistics_disk_corrupt_page(self, tmp_path):
        path = str(tmp_path / "corrupt.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as ix:
            ix.extend(TEXT)
            ix.checkpoint()
        ix = DiskSpineIndex.open(path, buffer_pages=4)
        for page_id in ix._ledger.committed:
            with open(path, "r+b") as handle:
                handle.seek(page_id * ix.pagefile.page_size + 64)
                handle.write(b"\xfe" * 32)
        try:
            with tracing_enabled() as tracer:
                with pytest.raises(CorruptPageError):
                    matching.matching_statistics(ix, TEXT[:50])
                assert tracer.active is None
                # A later span is a root span, not a child of the dead one.
                with query_scope("after") as scope:
                    assert scope.span._parent is None
        finally:
            ix.close()
        span = tracer.spans[0]
        assert span.op == "disk.matching.statistics"
        assert (span.status, span.attrs["error"]) == ("error",
                                                      "CorruptPageError")

    def test_scrub_once(self, monkeypatch, tmp_path):
        def broken(self, target):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(Scrubber, "_scrub_one", broken)
        ix = DiskSpineIndex(alphabet=dna_alphabet(),
                            path=str(tmp_path / "scrub.spine"))
        ix.extend(TEXT)
        try:
            with tracing_enabled() as tracer:
                with pytest.raises(RuntimeError):
                    Scrubber(ix).scrub_once()
                assert tracer.active is None
        finally:
            ix.close()
        span = tracer.spans[-1]
        assert span.op == "storage.scrub"
        assert (span.status, span.attrs["error"]) == ("error",
                                                      "RuntimeError")

    def test_run_case(self, monkeypatch):
        def broken(scenario, workdir, scope):
            raise RuntimeError("case failed")

        monkeypatch.setattr(differential, "_run_case", broken)
        scenario = generate_scenario(random.Random(0), ["memory"])
        with tracing_enabled() as tracer:
            with pytest.raises(RuntimeError):
                differential.run_case(scenario)
            assert tracer.active is None
        span = tracer.spans[-1]
        assert span.op == "check.case"
        assert (span.status, span.attrs["error"]) == ("error",
                                                      "RuntimeError")


class TestPerThreadActive:
    def test_interleaved_threads_never_adopt_each_others_span(self):
        tracer = Tracer(enabled=True)
        steps = [threading.Event() for _ in range(3)]
        seen = {}

        def first():
            span = tracer.begin("a")
            steps[0].set()
            steps[1].wait(5)
            seen["a_active"] = tracer.active
            tracer.finish(span)
            seen["a_after"] = tracer.active
            seen["a"] = span
            steps[2].set()

        def second():
            steps[0].wait(5)
            span = tracer.begin("b")
            seen["b_parent"] = span._parent
            steps[1].set()
            steps[2].wait(5)
            seen["b_active"] = tracer.active
            tracer.finish(span)
            seen["b_after"] = tracer.active
            seen["b"] = span

        threads = [threading.Thread(target=fn) for fn in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen["b_parent"] is None
        assert seen["a_active"] is seen["a"]
        assert seen["b_active"] is seen["b"]
        assert seen["a_after"] is None and seen["b_after"] is None
        assert tracer.active is None

    def test_span_ids_unique_across_threads(self):
        tracer = Tracer(enabled=True, max_spans=8 * 400)

        def work():
            for _ in range(400):
                tracer.finish(tracer.begin("op"))

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [span.trace_id for span in tracer.spans]
        assert len(ids) == len(set(ids)) == 8 * 400

    def test_concurrent_page_fetches_land_in_their_own_span(self,
                                                            tmp_path):
        text = generate_dna(6000, seed=41)
        disk = DiskSpineIndex(alphabet=dna_alphabet(),
                              path=str(tmp_path / "pf.spine"),
                              page_size=512, buffer_pages=4)
        disk.extend(text)
        disk.enable_concurrent_reads()
        memory = SpineIndex(text)
        patterns = [text[i:i + 12] for i in range(0, 5800, 29)]
        start = threading.Barrier(2)
        metrics = disk.pagefile.metrics

        def run(index):
            start.wait(10)
            for pattern in patterns:
                search.find_all(index, pattern)

        try:
            with tracing_enabled() as tracer:
                misses = metrics.buffer_misses
                threads = [threading.Thread(target=run, args=(index,))
                           for index in (disk, memory)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                misses = metrics.buffer_misses - misses
        finally:
            disk.close()

        def fetches(span):
            return sum(e["type"] == "page-fetch" for e in span.events)

        spans = tracer.spans
        assert len(spans) == 2 * len(patterns)
        on_disk = [s for s in spans if s.op.startswith("disk.")]
        in_memory = [s for s in spans if not s.op.startswith("disk.")]
        assert len(on_disk) == len(in_memory) == len(patterns)
        assert all(fetches(s) == 0 for s in in_memory)
        assert misses > 0
        assert sum(map(fetches, on_disk)) == misses


class TestShardedPointVerbs:
    def test_contains_and_find_first_spans(self):
        text = generate_dna(3000, seed=43)
        sharded = ShardedSpineIndex.build(text, shards=3,
                                          max_pattern_len=16)
        pattern = text[2500:2510]
        with metrics_enabled() as registry, tracing_enabled() as tracer:
            assert sharded.contains(pattern)
            assert sharded.find_first(pattern) == text.find(pattern)
            assert not sharded.contains("AC" + "T" * 14)
            latency = registry.timer("shard.query.seconds").count
            counters = registry.snapshot()["counters"]
        # Only find_all and batches count as routed queries.
        assert "shard.queries" not in counters
        assert "shard.route.fanout" not in counters
        assert latency == 3
        shard_spans = [s for s in tracer.spans
                       if s.op.startswith("shard.")]
        assert [(s.op, s.status) for s in shard_spans] == [
            ("shard.contains", "hit"), ("shard.find_first", "hit"),
            ("shard.contains", "miss")]
        for span in shard_spans:
            assert span.attrs["shards"] == 3
            routes = [e for e in span.events if e["type"] == "shard-route"]
            assert routes and routes[0]["shard"] == 0
        assert tracer.active is None
