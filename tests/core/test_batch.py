"""Batched multi-pattern query engine (repro.core.batch).

The load-bearing suite is differential: random texts over DNA, protein
and binary alphabets, random pattern workloads, and three independent
oracles that must agree — ``batch_find_all``, per-pattern ``find_all``
and the naive text scan — across all three traversal layers and both
the single- and multi-threaded traversal phases.
"""

import random

import pytest

from repro import obs
from repro.alphabet import Alphabet, dna_alphabet, protein_alphabet
from repro.core import SpineIndex, batch_find_all, search
from repro.core.batch import BatchMatch
from repro.core.packed import PackedSpineIndex
from repro.core.search import OccurrenceScanner
from repro.disk.spine_disk import DiskSpineIndex
from repro.exceptions import SearchError

from tests.conftest import brute_occurrences


ALPHABETS = {
    "dna": (dna_alphabet, "ACGT"),
    "protein": (protein_alphabet, "ACDEFGHIKLMNPQRSTVWY"),
    "binary": (lambda: Alphabet("01"), "01"),
}


def _workload(rng, text, symbols, count=24, max_len=8):
    """Mixed pattern workload: present substrings, absent strings and
    strings with out-of-alphabet characters."""
    patterns = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.6 and text:
            start = rng.randrange(len(text))
            length = rng.randint(1, max_len)
            patterns.append(text[start:start + length])
        elif kind < 0.85:
            length = rng.randint(1, max_len)
            patterns.append("".join(rng.choice(symbols)
                                    for _ in range(length)))
        else:
            base = "".join(rng.choice(symbols)
                           for _ in range(rng.randint(0, max_len - 1)))
            patterns.append(base + rng.choice("zx9!#"))
    return patterns


def _layers(text, alphabet):
    idx = SpineIndex(text, alphabet=alphabet)
    yield idx
    yield PackedSpineIndex.from_index(idx)
    disk = DiskSpineIndex(alphabet=alphabet, buffer_pages=8,
                          page_size=1024)
    disk.extend(text)
    try:
        yield disk
    finally:
        disk.close()


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(ALPHABETS))
    @pytest.mark.parametrize("threads", [1, 4])
    def test_three_way_agreement_all_layers(self, name, threads):
        make_alphabet, symbols = ALPHABETS[name]
        # A str seed is digested (not hashed), so it holds across runs.
        rng = random.Random(f"{name}/{threads}")
        for trial in range(4):
            length = rng.randint(40, 400)
            text = "".join(rng.choice(symbols) for _ in range(length))
            patterns = _workload(rng, text, symbols)
            naive = {p: brute_occurrences(text, p) for p in patterns}
            for layer in _layers(text, make_alphabet()):
                results = batch_find_all(layer, patterns,
                                         threads=threads)
                assert len(results) == len(patterns)
                for match in results:
                    looped = layer.find_all(match.pattern)
                    assert match.starts == looped
                    assert match.starts == naive[match.pattern]
                    if any(c not in symbols
                           for c in match.pattern.upper()):
                        assert match.status == "alphabet-miss"
                    else:
                        expected = "hit" if naive[match.pattern] else \
                            "miss"
                        assert match.status == expected


class TestBatchSemantics:
    def test_duplicates_resolved_once_and_identically(self, paper_index):
        results = batch_find_all(paper_index, ["ac", "ca", "ac", "ac"])
        assert results[0].starts == results[2].starts == \
            results[3].starts == [1, 4, 7]
        assert results[1].starts == [3, 5, 8]
        # Independent lists: mutating one result must not leak.
        results[0].starts.append(99)
        assert results[2].starts == [1, 4, 7]

    def test_empty_batch(self, paper_index):
        assert batch_find_all(paper_index, []) == []

    def test_empty_pattern_rejected(self, paper_index):
        with pytest.raises(SearchError):
            batch_find_all(paper_index, ["ac", ""])

    def test_statuses(self, paper_index):
        hit, miss, alpha = batch_find_all(
            paper_index, ["acca", "caac" * 4, "acz"])
        assert (hit.status, hit.found) == ("hit", True)
        assert (miss.status, miss.starts) == ("miss", [])
        assert (alpha.status, alpha.starts) == ("alphabet-miss", [])

    def test_batchmatch_surface(self):
        match = BatchMatch("ac", [1, 4], "hit")
        assert len(match) == 2
        assert "ac" in repr(match) and "hit" in repr(match)

    def test_limit_equals_prefix_index(self, rng):
        symbols = "ACGT"
        text = "".join(rng.choice(symbols) for _ in range(200))
        full = SpineIndex(text, alphabet=dna_alphabet())
        patterns = _workload(rng, text, symbols, count=16)
        for k in (0, 1, 37, 120, 200):
            prefix = SpineIndex(text[:k], alphabet=dna_alphabet())
            bounded = batch_find_all(full, patterns, limit=k)
            direct = batch_find_all(prefix, patterns)
            assert [(m.pattern, m.starts) for m in bounded] == \
                [(m.pattern, m.starts) for m in direct]

    def test_point_query_helpers_respect_limit(self, rng):
        text = "".join(rng.choice("ab") for _ in range(80))
        full = SpineIndex(text)
        for k in (0, 10, 40, 80):
            prefix_text = text[:k]
            for pattern in ("a", "ab", "ba", "abab", ""):
                assert search.contains(full, pattern, k) == \
                    (pattern in prefix_text or pattern == "")
                if pattern:
                    assert search.find_all(full, pattern, k) == \
                        brute_occurrences(prefix_text, pattern)


class TestSharedScanAcceptance:
    """The tentpole guarantee: a batch over many patterns does ONE
    downstream Link-Table sweep on the disk layer."""

    def _build(self, rng, chars=600):
        text = "".join(rng.choice("ACGT") for _ in range(chars))
        disk = DiskSpineIndex(alphabet=dna_alphabet(), buffer_pages=4,
                              page_size=256)
        disk.extend(text)
        return text, disk

    def test_one_scan_for_sixteen_plus_patterns(self, rng):
        text, disk = self._build(rng)
        try:
            patterns = sorted({text[rng.randrange(len(text) - 8):][:l]
                               for l in (3, 4, 5, 6)
                               for _ in range(6)})
            assert len(patterns) >= 16
            first_starts = [disk.find_all(p)[0] for p in patterns]
            min_first_end = min(s + len(p)
                                for s, p in zip(first_starts, patterns))

            with obs.metrics_enabled() as registry:
                results = batch_find_all(disk, patterns)
                counters = registry.snapshot()["counters"]
            # One shared sweep: exactly the nodes downstream of the
            # earliest first occurrence, once — not once per pattern.
            assert counters["batch.scan_nodes"] == \
                len(text) - min_first_end
            assert counters["batch.batches"] == 1

            with obs.metrics_enabled() as registry:
                looped = [disk.find_all(p) for p in patterns]
                counters = registry.snapshot()["counters"]
            assert [m.starts for m in results] == looped
            # The looped oracle pays one sweep per pattern.
            assert counters["disk.search.scan_nodes"] == sum(
                len(text) - (s + len(p))
                for s, p in zip(first_starts, patterns))
            assert counters["disk.search.scan_nodes"] >= \
                len(patterns) * (len(text) - max(
                    s + len(p)
                    for s, p in zip(first_starts, patterns)))
        finally:
            disk.close()

    def test_batch_touches_fewer_pages_than_loop(self, rng):
        text, disk = self._build(rng)
        try:
            patterns = [text[i:i + 5] for i in range(0, 80, 5)]
            ends = [search.find_first_end(disk, disk.alphabet.encode(p),
                                          len(disk))[0]
                    for p in patterns]
            metrics = disk.pagefile.metrics

            # Sweep phase only: the 16 traversals are identical on both
            # sides and would otherwise dominate the page traffic.
            metrics.reset()
            scanner = OccurrenceScanner(disk)
            pids = [scanner.add(end, len(p))
                    for p, end in zip(patterns, ends)]
            shared = scanner.resolve_starts()
            batch_touches = metrics.reads + metrics.buffer_hits

            metrics.reset()
            looped = []
            for pattern, end in zip(patterns, ends):
                single = OccurrenceScanner(disk)
                pid = single.add(end, len(pattern))
                looped.append(single.resolve_starts()[pid])
            loop_touches = metrics.reads + metrics.buffer_hits

            assert [shared[pid] for pid in pids] == looped
            # 16 per-pattern sweeps re-walk the Link Table 16 times;
            # the shared sweep walks it once. Page traffic must reflect
            # that asymptotically, not marginally.
            assert batch_touches * 8 <= loop_touches
        finally:
            disk.close()

    def test_sweep_lookups_bounded_by_pages_and_rib_entries(self, rng):
        """A disk ``find_all`` sweep costs one pool lookup per Link-Table
        page it spans plus one RT row read per rib-bearing entry whose
        LEL qualifies — never one lookup per node."""
        text, disk = self._build(rng)
        try:
            n = len(disk)
            per_page = disk._lt.per_page
            metrics = disk.pagefile.metrics
            for start in range(0, 80, 5):
                pattern = text[start:start + 5]
                m = len(pattern)
                codes = disk.alphabet.encode(pattern)
                metrics.reset()
                first_end, _ = search.find_first_end(disk, codes, n)
                walk = metrics.buffer_hits + metrics.buffer_misses
                metrics.reset()
                assert disk.find_all(pattern) == \
                    brute_occurrences(text, pattern)
                sweep = metrics.buffer_hits + metrics.buffer_misses - walk
                lt_pages = n // per_page - (first_end + 1) // per_page + 1
                rib_entries = sum(
                    1 for j in range(first_end + 1, n + 1)
                    if disk.link(j)[1] >= m and disk.ribs_at(j))
                assert sweep <= lt_pages + rib_entries

            # One shared sweep for all sixteen patterns reads about
            # twenty physical pages: the LT pages plus a few RT rows.
            patterns = [text[i:i + 5] for i in range(0, 80, 5)]
            scanner = OccurrenceScanner(disk)
            for pattern in patterns:
                scanner.add(search.find_first_end(
                    disk, disk.alphabet.encode(pattern), n)[0],
                    len(pattern))
            metrics.reset()
            scanner.resolve()
            assert metrics.reads <= 30
        finally:
            disk.close()


class TestAlphabetMissAllLayers:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_foreign_characters_miss_cleanly(self, threads):
        text = "AACCACAACA"
        for layer in _layers(text, dna_alphabet()):
            assert layer.contains("AAZ") is False
            assert layer.find_all("Z") == []
            results = batch_find_all(layer, ["AAC", "A!C"],
                                     threads=threads)
            assert results[0].status == "hit"
            assert results[1].status == "alphabet-miss"

    def test_find_first_foreign_is_none(self):
        index = SpineIndex("AACCACAACA", alphabet=dna_alphabet())
        assert index.find_first("AZ") is None
