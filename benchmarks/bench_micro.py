"""Micro-benchmarks of the core operations (true pytest-benchmark
timing loops, unlike the single-shot experiment benches).

These give per-operation numbers a downstream user cares about:
construction throughput per index family, point queries, occurrence
enumeration, and matching-statistics streaming — plus the cost of
generating the pseudo-genome inputs themselves. The disk benches run
at the shape of perfbench's ``disk-ingest``: a checkpointed 20k-char
warm prefix reopened under a 64-page LRU pool, then 1000-char extends.
"""

import os
import shutil

import pytest

from repro.automaton import SuffixAutomaton
from repro.core import SpineIndex
from repro.core.matching import matching_statistics
from repro.core.packed import PackedSpineIndex
from repro.disk import DiskSpineIndex
from repro.sequences import derive_sequence, generate_dna
from repro.suffixarray import SuffixArrayIndex
from repro.storage import PageFile
from repro.storage.wal import wal_path_for
from repro.suffixtree import SuffixTree

N = 20_000
#: Characters per disk extend.
DISK_CHUNK = 1_000


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


@pytest.fixture(scope="module")
def disk_warm(tmp_path_factory):
    """Path and text of a checkpointed ``N``-char disk index."""
    text = generate_dna(N + 4 * DISK_CHUNK, seed=9)
    path = str(tmp_path_factory.mktemp("disk") / "warm.pages")
    warm = DiskSpineIndex(path=path, buffer_pages=64,
                          wal_fsync="interval")
    warm.extend(text[:N])
    warm.checkpoint()
    warm.close()
    return path, text


def _reopen(disk_warm, directory):
    """A fresh copy of the warm index, opened with a cold pool."""
    warm_path, _ = disk_warm
    os.makedirs(directory)
    path = os.path.join(directory, "index.pages")
    shutil.copyfile(warm_path, path)
    if os.path.exists(wal_path_for(warm_path)):
        shutil.copyfile(wal_path_for(warm_path), wal_path_for(path))
    return DiskSpineIndex.open(path, buffer_pages=64,
                               wal_fsync="interval")


def test_disk_extend(benchmark, disk_warm, tmp_path):
    text = disk_warm[1]
    first = text[N:N + DISK_CHUNK]
    second = text[N + DISK_CHUNK:N + 2 * DISK_CHUNK]
    opened = []

    def setup():
        # The round's first extend warms the pool and shadows the
        # checkpointed pages it touches; the second one is timed.
        ix = _reopen(disk_warm, str(tmp_path / f"round{len(opened)}"))
        ix.extend(first)
        opened.append(ix)
        return (ix,), {}

    benchmark.pedantic(lambda ix: ix.extend(second), setup=setup,
                       rounds=5, iterations=1)
    for ix in opened:
        assert len(ix) == N + 2 * DISK_CHUNK
        ix.close()


def test_disk_contains(benchmark, disk_warm, tmp_path):
    text = disk_warm[1]
    ix = _reopen(disk_warm, str(tmp_path / "round"))
    for start in range(N, len(text), DISK_CHUNK):
        ix.extend(text[start:start + DISK_CHUNK])
    pattern = text[N // 2:N // 2 + 16]
    assert benchmark(ix.contains, pattern)
    ix.close()


@pytest.fixture(scope="module")
def page_file(tmp_path_factory):
    """A checksummed file-backed ``PageFile`` of 64 written 4 KiB
    pages, left in the OS page cache."""
    path = str(tmp_path_factory.mktemp("pages") / "pages.bin")
    pf = PageFile(path=path, page_size=4096, checksums=True)
    frame = bytearray(os.urandom(4096))
    for _ in range(64):
        pf.write_page(pf.allocate_page(), frame)
    yield pf, frame
    pf.close(sync=False)


def test_page_read(benchmark, page_file):
    pf, frame = page_file
    got = benchmark(pf.read_page, 7)
    assert got[:pf.payload_size] == frame[:pf.payload_size]


def test_page_write(benchmark, page_file):
    pf, frame = page_file
    benchmark(pf.write_page, 7, frame)
    assert pf.read_page(7)[:pf.payload_size] == frame[:pf.payload_size]
