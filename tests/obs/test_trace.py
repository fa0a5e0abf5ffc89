"""Query-span tracing: span mechanics, sampling, export, wiring."""

import json

import pytest

from repro import obs
from repro.obs.trace import (
    Span, TRACE_SCHEMA, Tracer, get_tracer, set_tracer,
    summarize_spans, tracing_enabled)

PAPER = "aaccacaaca"


class TestSpan:
    def test_event_appends_typed_dict(self):
        span = Span(1, "op")
        span.event("enter-rib", node=3, pt=1)
        assert span.events == [{"type": "enter-rib", "node": 3,
                                "pt": 1}]

    def test_vertebra_coalesces_runs(self):
        span = Span(1, "op")
        for node in (0, 1, 2):
            span.vertebra(node)
        span.event("enter-rib", node=3)
        span.vertebra(5)
        span.vertebra(6, 4)
        assert span.events == [
            {"type": "vertebra-run", "start": 0, "count": 3},
            {"type": "enter-rib", "node": 3},
            {"type": "vertebra-run", "start": 5, "count": 5},
        ]

    def test_vertebra_without_coalescing(self):
        span = Span(1, "op", coalesce=False)
        span.vertebra(0)
        span.vertebra(1, 2)
        assert span.events == [
            {"type": "vertebra-run", "start": node, "count": 1}
            for node in (0, 1, 2)]

    def test_to_dict_shape(self):
        span = Span(7, "search", attrs={"pattern": "ac"})
        span.event("no-edge", node=0)
        doc = span.to_dict()
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["trace_id"] == 7
        assert doc["op"] == "search"
        assert doc["attrs"] == {"pattern": "ac"}
        assert doc["event_count"] == 1


class TestTracer:
    def test_disabled_begin_returns_none(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("op") is None
        tracer.finish(None)  # must not raise
        assert tracer.spans == []

    def test_sampling_every_nth(self):
        tracer = Tracer(enabled=True, sample_every=3)
        spans = [tracer.begin("op") for _ in range(7)]
        for span in spans:
            tracer.finish(span)
        # Queries 1, 4, 7 are sampled (the first always is).
        assert [s is not None for s in spans] == [
            True, False, False, True, False, False, True]
        assert len(tracer.spans) == 3

    def test_nested_spans_restore_active(self):
        tracer = Tracer(enabled=True)
        outer = tracer.begin("outer")
        assert tracer.active is outer
        inner = tracer.begin("inner")
        assert tracer.active is inner
        tracer.finish(inner)
        assert tracer.active is outer
        tracer.finish(outer, status="hit")
        assert tracer.active is None
        assert [s.op for s in tracer.spans] == ["inner", "outer"]

    def test_query_context_manager_marks_errors(self):
        with tracing_enabled() as tracer:
            with pytest.raises(RuntimeError):
                with obs.query_scope("boom"):
                    raise RuntimeError("x")
            assert tracer.active is None
        assert tracer.spans[-1].status == "error"
        assert tracer.spans[-1].attrs["error"] == "RuntimeError"

    def test_retention_bound_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for _ in range(5):
            tracer.finish(tracer.begin("op"))
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_export_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer(enabled=True)
        span = tracer.begin("search", pattern="ac")
        span.event("pt-reject", node=3, pt=1, pathlength=2)
        tracer.finish(span, status="miss")
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path, drain=True) == 1
        assert tracer.spans == []
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert len(lines) == 1
        doc = lines[0]
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["op"] == "search"
        assert doc["status"] == "miss"
        assert doc["events"][0]["type"] == "pt-reject"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestSummarize:
    def test_summary_shape(self):
        tracer = Tracer(enabled=True)
        a = tracer.begin("search")
        a.event("pt-accept", node=1)
        a.event("pt-reject", node=3)
        a.event("page-fetch", page=4, physical=True)
        a.event("page-fetch", page=5, physical=True)
        tracer.finish(a)
        b = tracer.begin("search")
        b.event("pt-accept", node=1)
        tracer.finish(b)
        summary = summarize_spans(tracer.spans)
        assert summary["spans"] == 2
        assert summary["by_op"] == {"search": 2}
        assert summary["pt_checks"] == {
            "accepts": 2, "rejects": 1,
            "reject_rate": pytest.approx(1 / 3)}
        assert summary["pages_per_query"] == {
            "total_fetches": 2, "min": 0, "max": 2, "mean": 1.0}

    def test_empty_spans(self):
        summary = summarize_spans([])
        assert summary["spans"] == 0
        assert summary["pt_checks"]["reject_rate"] == 0.0
        assert summary["pages_per_query"] == {"total_fetches": 0}


class TestGlobalTracer:
    def test_disabled_by_default(self):
        assert get_tracer().enabled is False

    def test_tracing_enabled_restores_state(self):
        tracer = get_tracer()
        assert not tracer.enabled
        with tracing_enabled(sample_every=4) as inner:
            assert inner is tracer
            assert tracer.enabled
            assert tracer.sample_every == 4
        assert not tracer.enabled
        assert tracer.sample_every == 1

    def test_set_tracer_swaps(self):
        replacement = Tracer(enabled=False)
        previous = set_tracer(replacement)
        try:
            assert get_tracer() is replacement
        finally:
            set_tracer(previous)
        assert get_tracer() is previous


class TestLibraryWiring:
    """Instrumented traversal layers record structural events."""

    def test_in_memory_search_records_pt_reject(self):
        from repro.core.index import SpineIndex

        index = SpineIndex(PAPER)
        with tracing_enabled() as tracer:
            assert not index.contains("accaa")  # the paper's FP probe
        span = tracer.spans[-1]
        assert span.op == "search.contains"
        assert span.status == "miss"
        rejects = [e for e in span.events if e["type"] == "pt-reject"]
        assert rejects, "PT exclusion must be visible in the trace"
        # The rejecting rib is at node 5 with PT 2, pathlength 4.
        assert rejects[-1]["pt"] == 2
        assert rejects[-1]["pathlength"] == 4

    def test_find_all_span_has_occurrences(self):
        from repro.core.index import SpineIndex

        index = SpineIndex(PAPER)
        with tracing_enabled() as tracer:
            assert index.find_all("ac") == [1, 4, 7]
        span = tracer.spans[-1]
        assert span.op == "search.find_all"
        assert span.status == "hit"
        assert span.attrs["occurrences"] == 3

    def test_extrib_fallthrough_recorded(self):
        from repro.core.index import SpineIndex

        index = SpineIndex(PAPER)
        with tracing_enabled() as tracer:
            assert index.contains("acaa")
        events = tracer.spans[-1].events
        taken = [e for e in events
                 if e["type"] == "extrib-fallthrough" and e["taken"]]
        assert taken and taken[0]["dest"] == 7

    def test_packed_search_traced(self):
        pytest.importorskip("numpy")
        from repro.core.index import SpineIndex
        from repro.core.packed import PackedSpineIndex

        packed = PackedSpineIndex.from_index(SpineIndex(PAPER))
        with tracing_enabled() as tracer:
            assert packed.contains("caca")
            assert not packed.contains("accaa")
        ops = [s.op for s in tracer.spans]
        assert ops == ["packed.search.contains"] * 2
        assert tracer.spans[-1].status == "miss"

    def test_matching_records_link_hops(self):
        from repro.core.index import SpineIndex
        from repro.core.matching import matching_statistics

        index = SpineIndex(PAPER)
        with tracing_enabled() as tracer:
            result = matching_statistics(index, "accaca")
        span = tracer.spans[-1]
        assert span.op == "matching.statistics"
        hops = [e for e in span.events if e["type"] == "link-hop"]
        assert len(hops) == result.link_hops

    def test_disabled_mode_records_nothing(self):
        from repro.core.index import SpineIndex

        tracer = get_tracer()
        assert not tracer.enabled
        tracer.reset()
        index = SpineIndex(PAPER)
        index.find_all("ac")
        index.contains("caca")
        assert tracer.spans == []


class TestDiskAttribution:
    """Acceptance criterion: every buffer-pool miss during a traced
    disk search lands in that query's span (and its JSONL export)."""

    def _make_disk(self, buffer_pages=2):
        from repro.disk.spine_disk import DiskSpineIndex

        disk = DiskSpineIndex(buffer_pages=buffer_pages, page_size=512)
        disk.extend("acgtacggttacgacgt" * 40)
        return disk

    def test_misses_equal_page_fetch_events(self, tmp_path):
        disk = self._make_disk()
        try:
            disk.pool.clear()  # cold cache: the search must fault
            metrics = disk.pagefile.metrics
            with tracing_enabled() as tracer:
                before = metrics.buffer_misses
                assert disk.contains("ggttacgacg")
                misses = metrics.buffer_misses - before
                span = tracer.spans[-1]
                path = tmp_path / "disk.jsonl"
                tracer.export_jsonl(path)
            assert span.op == "disk.search.contains"
            fetches = [e for e in span.events
                       if e["type"] == "page-fetch"]
            assert misses > 0
            assert len(fetches) == misses
            # The JSONL export carries the same attribution.
            doc = [json.loads(line)
                   for line in path.read_text().splitlines()
                   if json.loads(line)["op"] == "disk.search.contains"]
            assert len([e for e in doc[-1]["events"]
                        if e["type"] == "page-fetch"]) == misses
        finally:
            disk.close()

    def test_warm_cache_query_fetches_nothing(self):
        # Pool big enough to keep the query's working set resident.
        disk = self._make_disk(buffer_pages=64)
        try:
            pattern = "ggttacgacg"
            disk.contains(pattern)  # warm the relevant pages
            with tracing_enabled() as tracer:
                assert disk.contains(pattern)
            span = tracer.spans[-1]
            assert not [e for e in span.events
                        if e["type"] == "page-fetch"]
        finally:
            disk.close()

    def test_tracer_summary_counts_pages(self):
        disk = self._make_disk()
        try:
            disk.pool.clear()
            with tracing_enabled() as tracer:
                disk.contains("ggttacgacg")
                summary = tracer.summary()
            assert summary["pages_per_query"]["total_fetches"] > 0
            assert summary["queries_seen"] >= 1
        finally:
            disk.close()
