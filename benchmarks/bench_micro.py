"""Micro-benchmarks of the core operations (true pytest-benchmark
timing loops, unlike the single-shot experiment benches).

These give per-operation numbers a downstream user cares about:
construction throughput per index family, point queries, occurrence
enumeration, and matching-statistics streaming — plus the cost of
generating the pseudo-genome inputs themselves.
"""

import pytest

from repro.automaton import SuffixAutomaton
from repro.core import SpineIndex
from repro.core.matching import matching_statistics
from repro.core.packed import PackedSpineIndex
from repro.sequences import derive_sequence, generate_dna
from repro.suffixarray import SuffixArrayIndex
from repro.suffixtree import SuffixTree

N = 20_000


@pytest.fixture(scope="module")
def text():
    return generate_dna(N, seed=7)


@pytest.fixture(scope="module")
def query():
    return generate_dna(N // 4, seed=8)


@pytest.fixture(scope="module")
def spine(text):
    return SpineIndex(text)


def test_generate_dna(benchmark):
    text = benchmark(generate_dna, N, seed=7)
    assert len(text) == N


def test_derive_sequence(benchmark, text):
    derived = benchmark(derive_sequence, text, seed=11)
    assert abs(len(derived) - len(text)) < N // 50


def test_build_spine(benchmark, text):
    index = benchmark(SpineIndex, text)
    assert len(index) == len(text)


def test_build_suffix_tree(benchmark, text):
    tree = benchmark(SuffixTree, text)
    assert len(tree) == len(text)


def test_build_suffix_array(benchmark, text):
    sa = benchmark(SuffixArrayIndex, text)
    assert len(sa) == len(text)


def test_build_dawg(benchmark, text):
    dawg = benchmark(SuffixAutomaton, text)
    assert len(dawg) == len(text)


def test_pack_spine(benchmark, spine):
    packed = benchmark(PackedSpineIndex.from_index, spine)
    assert packed.measured_bytes()["bytes_per_char"] < 12.0


def test_spine_contains(benchmark, spine, text):
    pattern = text[N // 2:N // 2 + 24]
    assert benchmark(spine.contains, pattern)


def test_spine_find_all(benchmark, spine, text):
    pattern = text[1000:1012]
    starts = benchmark(spine.find_all, pattern)
    assert 1000 in starts


def test_spine_matching_statistics(benchmark, spine, query):
    result = benchmark.pedantic(matching_statistics, args=(spine, query),
                                rounds=3, iterations=1)
    assert len(result.lengths) == len(query)


def test_packed_find_all(benchmark, spine, text):
    packed = PackedSpineIndex.from_index(spine)
    pattern = text[1000:1012]
    starts = benchmark(packed.find_all, pattern)
    assert 1000 in starts


def test_packed_matching_statistics(benchmark, spine, query):
    packed = PackedSpineIndex.from_index(spine)
    result = benchmark.pedantic(packed.matching_statistics,
                                args=(query,), rounds=3, iterations=1)
    assert len(result.lengths) == len(query)


def test_stream_matcher_throughput(benchmark, spine, query):
    from repro.core.cursor import StreamMatcher

    def run():
        matcher = StreamMatcher(spine, min_length=12)
        events = sum(1 for ch in query if matcher.feed(ch))
        matcher.finish()
        return events

    benchmark.pedantic(run, rounds=3, iterations=1)
