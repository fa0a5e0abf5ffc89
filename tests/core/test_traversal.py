"""The traversal half of the layer protocol, on every layer.

One engine walk (``repro.core.search.walk``) applies the edge rule over
each layer's ``vertebra_run``, ``rib`` and ``extrib_chain``. These tests
pin the run accessor's contract, the snapshot ``limit`` on a run, and
that the run-at-a-time walk records exactly the trace events and counts
of a per-character walk with ``search.step``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import matching
from repro.core.matching import (MatchingResult,
                                 brute_force_matching_statistics)
from repro.core.search import find_first_end, step
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, tracing_enabled
from repro.sequences import generate_dna
from tests.conftest import PAPER_STRING, three_layers

TEXT = generate_dna(3000, seed=5)


@pytest.fixture(scope="module")
def paper_layers():
    with three_layers(PAPER_STRING) as layers:
        yield layers


@pytest.fixture(scope="module")
def dna_layers():
    # The disk pool holds the whole index, so traced runs see no
    # page-fetch events once it is warm.
    with three_layers(TEXT, page_size=512, buffer_pages=512) as layers:
        yield layers


def reference_first_end(index, codes, limit, span=None):
    """``(end node or None, steps)`` with one ``search.step`` per code."""
    node = 0
    for i, code in enumerate(codes):
        node = step(index, node, i, code, span)
        if node is None or node > limit:
            return None, i + 1
    return node, len(codes)


def reference_matching(index, codes, span=None):
    """Matching statistics with one ``search.step`` per attempt: on a
    failed step take the longest suffix recorded at the node (the last
    rejected rib or extrib) when it covers the link's LEL, else hop."""
    result = MatchingResult()
    cur, length = 0, 0
    for code in codes:
        while True:
            result.checks += 1
            nxt = step(index, cur, length, code, span)
            if nxt is not None:
                cur, length = nxt, length + 1
                break
            if cur == 0:
                cur, length = 0, 0
                break
            dest, lel = index.link(cur)
            rib = index.rib(cur, code)
            if rib is not None:
                chain = list(index.extrib_chain(cur, code))
                cand_dest, cand_pt = chain[-1] if chain else rib
                if cand_pt >= lel:
                    if span is not None:
                        span.event("pt-accept", node=cur, pt=cand_pt,
                                   pathlength=cand_pt, dest=cand_dest,
                                   shortened=True)
                    cur, length = cand_dest, cand_pt + 1
                    break
            if span is not None:
                span.event("link-hop", src=cur, dest=dest, lel=lel,
                           pathlength=length)
            cur, length = dest, lel
            result.link_hops += 1
        result.lengths.append(length)
        result.end_nodes.append(cur)
    return result


def _patterns(rng, count):
    out = []
    for _ in range(count):
        if rng.random() < 0.7:
            start = rng.randrange(len(TEXT))
            out.append(TEXT[start:start + rng.randint(1, 40)])
        else:
            out.append("".join(rng.choice("ACGT")
                               for _ in range(rng.randint(1, 12))))
    return out


def _query(rng):
    """A 300-char query mixing mutated text pieces and random DNA."""
    parts = []
    while sum(map(len, parts)) < 300:
        if rng.random() < 0.6:
            start = rng.randrange(len(TEXT) - 60)
            piece = list(TEXT[start:start + rng.randint(5, 60)])
            for _ in range(rng.randint(0, 2)):
                piece[rng.randrange(len(piece))] = rng.choice("ACGT")
            parts.append("".join(piece))
        else:
            parts.append("".join(rng.choice("ACGT")
                                 for _ in range(rng.randint(1, 8))))
    return "".join(parts)[:300]


class TestVertebraRun:
    def test_paper_example(self, paper_layers):
        for idx in paper_layers.values():
            codes = idx.alphabet.encode
            # At the tail there is no vertebra.
            assert idx.vertebra_run(10, codes("a"), 0) == 0
            # Capped by the pattern end, from offset 0 and offset 1.
            assert idx.vertebra_run(0, codes("aacc"), 0) == 4
            assert idx.vertebra_run(2, codes("gcca"), 1) == 3
            # Capped by the tail.
            assert idx.vertebra_run(6, codes("aacaaa"), 0) == 4
            # Stopped by a mismatch, or none at all.
            assert idx.vertebra_run(0, codes("aaa"), 0) == 2
            assert idx.vertebra_run(1, codes("c"), 0) == 0

    def test_disk_run_across_cl_page_edge(self):
        text = generate_dna(2000, seed=11)
        with three_layers(text, page_size=512) as layers:
            disk = layers["disk"]
            # Labels node + 1 .. node + 20 straddle CL pages 0 and 1.
            node = disk._cl.per_page - 6
            codes = disk.alphabet.encode(text[node:node + 20])
            broken = list(codes)
            broken[12] = (broken[12] + 1) % 4
            early = list(codes)
            early[3] = (early[3] + 1) % 4
            for probe, run, lookups in ((codes, 20, 2), (broken, 12, 2),
                                        (early, 3, 1)):
                for name, idx in layers.items():
                    stats = disk.pool.stats()
                    before = stats["hits"] + stats["misses"]
                    assert idx.vertebra_run(node, probe, 0) == run, name
                    stats = disk.pool.stats()
                    if name == "disk":
                        # One pool lookup per CL page slice, none past
                        # the mismatch.
                        assert stats["hits"] + stats["misses"] \
                            - before == lookups


class TestExtribChain:
    def test_same_chain_on_every_layer(self, paper_layers):
        for idx in paper_layers.values():
            a = idx.alphabet.encode_char("a")
            assert list(idx.extrib_chain(3, a)) == [(7, 2), (10, 3)]
            assert list(idx.extrib_chain(5, a)) == []
            assert list(idx.extrib_chain(2, a)) == []

    def test_disk_reads_each_element_when_asked(self, paper_layers):
        disk = paper_layers["disk"]

        def lookups():
            stats = disk.pool.stats()
            return stats["hits"] + stats["misses"]

        before = lookups()
        chain = disk.extrib_chain(3, disk.alphabet.encode_char("a"))
        assert lookups() == before
        deltas = []
        for _ in chain:
            deltas.append(lookups() - before)
            before = lookups()
        # LT entry, RT row and the first EXT record; then one EXT
        # record per further element.
        assert deltas == [3, 1]


class TestSnapshotLimit:
    def test_run_crossing_limit_is_a_dead_end(self, paper_layers):
        # "ccacaac" takes the rib (0,'c') -> 3, then a vertebra run
        # 3 -> 9 that crosses limit 6 on its fourth step (into node 7).
        for idx in paper_layers.values():
            codes = idx.alphabet.encode("ccacaac")
            metrics = MetricsRegistry()
            assert find_first_end(idx, codes, 9) == 9
            assert find_first_end(idx, codes, 6, metrics=metrics) is None
            steps = metrics.counter(idx.NAME_PREFIX + "search.steps")
            assert steps.value == 5
            assert reference_first_end(idx, codes, 6) == (None, 5)

    def test_steps_equal_per_character_walk(self, dna_layers):
        rng = random.Random(3)
        patterns = _patterns(rng, 150)
        for idx in dna_layers.values():
            for limit in (len(TEXT), 2000, 700, 40):
                metrics = MetricsRegistry()
                counter = metrics.counter(idx.NAME_PREFIX
                                          + "search.steps")
                for pattern in patterns:
                    codes = idx.alphabet.encode(pattern)
                    before = counter.value
                    end = find_first_end(idx, codes, limit,
                                         metrics=metrics)
                    assert (end, counter.value - before) == \
                        reference_first_end(idx, codes, limit), \
                        (pattern, limit)


class TestTraceEvents:
    @pytest.mark.parametrize("coalesce", [True, False])
    def test_find_first_end_records_per_step_events(self, dna_layers,
                                                    coalesce):
        rng = random.Random(4)
        patterns = _patterns(rng, 100)
        for name, idx in dna_layers.items():
            for limit in (len(TEXT), 900):
                for pattern in patterns:
                    codes = idx.alphabet.encode(pattern)
                    span = Span(1, "run", coalesce=coalesce)
                    ref = Span(2, "step", coalesce=coalesce)
                    assert find_first_end(idx, codes, limit, span=span) \
                        == reference_first_end(idx, codes, limit, ref)[0]
                    assert span.events == ref.events, (name, pattern)

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_matching_statistics_records_per_step_events(
            self, dna_layers, coalesce):
        rng = random.Random(5)
        queries = [_query(rng) for _ in range(4)]
        for name, idx in dna_layers.items():
            for query in queries:
                codes = idx.alphabet.encode(query)
                # Warm the disk pool: no page-fetch events below.
                expected = matching.matching_statistics(idx, query)
                with tracing_enabled(coalesce_vertebras=coalesce) as tr:
                    got = matching.matching_statistics(idx, query)
                    events = tr.spans[-1].events
                ref = Span(2, "step", coalesce=coalesce)
                reference = reference_matching(idx, codes, ref)
                assert got == expected == reference, name
                assert events == ref.events, name


@st.composite
def texts_and_queries(draw):
    """A small DNA or binary text, or the paper string, with a query
    over its symbols (now and then one the text lacks) and a pattern
    that often occurs in it."""
    kind = draw(st.sampled_from(["dna", "binary", "paper"]))
    if kind == "paper":
        text = PAPER_STRING
    else:
        symbols = "acgt" if kind == "dna" else "ac"
        text = draw(st.text(alphabet=symbols, min_size=1, max_size=60))
    query = draw(st.text(alphabet=sorted(set(text)) + ["g"], max_size=40))
    start = draw(st.integers(0, len(text) - 1))
    pattern = text[start:start + draw(st.integers(1, 12))]
    if draw(st.booleans()):
        pattern += draw(st.sampled_from("acgt"))
    return text, query, pattern


@settings(max_examples=60, deadline=None)
@given(case=texts_and_queries(), coalesce=st.booleans())
def test_walk_equals_references_on_every_layer(case, coalesce):
    text, query, pattern = case
    oracle = brute_force_matching_statistics(text, query)
    with three_layers(text) as layers:
        for name, idx in layers.items():
            codes = idx.alphabet.encode(query)
            # Warm the disk pool: no page-fetch events below.
            expected = matching.matching_statistics(idx, query)
            with tracing_enabled(coalesce_vertebras=coalesce) as tr:
                got = matching.matching_statistics(idx, query)
                events = tr.spans[-1].events
            ref = Span(2, "step", coalesce=coalesce)
            assert got == expected == reference_matching(idx, codes, ref), \
                name
            assert got.lengths == oracle, name
            assert events == ref.events, name
            # Every snapshot limit, those inside a vertebra run included:
            # the first occurrence inside the prefix, or a dead end.
            pattern_codes = idx.alphabet.encode(pattern)
            for limit in range(len(text) + 1):
                start = text[:limit].find(pattern)
                want = None if start < 0 else start + len(pattern)
                assert find_first_end(idx, pattern_codes, limit) == want, \
                    (name, limit)
                assert reference_first_end(idx, pattern_codes,
                                           limit)[0] == want, (name, limit)
