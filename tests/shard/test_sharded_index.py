"""Unit behavior of ShardedSpineIndex: partitioning, overlap, limits,
growth, persistence (repro.shard.index)."""

import os

import pytest

from repro import (QueryService, ShardedSpineIndex, SnapshotGuard,
                   SpineIndex)
from repro.exceptions import (AlphabetError, CircuitOpenError,
                              ConstructionError, SearchError,
                              StorageError)

from tests.conftest import PAPER_STRING, brute_occurrences


class TestPartitioning:
    def test_owned_spans_cover_text_disjointly(self):
        sh = ShardedSpineIndex.build("abcdefghij" * 10, shards=3,
                                     max_pattern_len=4)
        stats = sh.stats()["shards"]
        assert stats[0]["start"] == 0
        pos = 0
        for entry in stats:
            assert entry["start"] == pos
            pos += entry["owned_len"]
        assert pos == 100

    def test_overlap_is_max_pattern_len_minus_one(self):
        sh = ShardedSpineIndex.build("a" * 50, shards=2,
                                     max_pattern_len=8)
        assert sh.overlap == 7
        stats = sh.stats()["shards"]
        # First shard's local text = owned + the next 7 characters.
        assert stats[0]["local_len"] == stats[0]["owned_len"] + 7
        # Last shard has nothing after it.
        assert stats[1]["local_len"] == stats[1]["owned_len"]

    def test_single_shard_degenerates_to_flat(self):
        sh = ShardedSpineIndex.build(PAPER_STRING, shards=1,
                                     max_pattern_len=8)
        flat = SpineIndex(PAPER_STRING)
        assert sh.find_all("ac") == flat.find_all("ac")
        assert sh.shard_count == 1

    def test_more_shards_than_characters(self):
        sh = ShardedSpineIndex.build("ab", shards=5, max_pattern_len=4)
        assert sh.shard_count == 5
        assert sh.find_all("ab") == [0]
        assert sh.find_all("b") == [1]

    def test_paper_example_all_substrings(self):
        sh = ShardedSpineIndex.build(PAPER_STRING, shards=3,
                                     max_pattern_len=6)
        for i in range(len(PAPER_STRING)):
            for j in range(i + 1, min(len(PAPER_STRING), i + 6) + 1):
                pattern = PAPER_STRING[i:j]
                assert sh.find_all(pattern) == \
                    brute_occurrences(PAPER_STRING, pattern)

    def test_invalid_build_arguments(self):
        with pytest.raises(ConstructionError):
            ShardedSpineIndex.build("ab", shards=0)
        with pytest.raises(ConstructionError):
            ShardedSpineIndex.build("ab", max_pattern_len=0)
        with pytest.raises(ConstructionError):
            ShardedSpineIndex.build("ab", layer="papyrus")


class TestPatternCap:
    def test_long_pattern_raises_everywhere(self):
        sh = ShardedSpineIndex.build("acgt" * 10, shards=2,
                                     max_pattern_len=4)
        long = "acgta"
        with pytest.raises(SearchError):
            sh.find_all(long)
        with pytest.raises(SearchError):
            sh.contains(long)
        with pytest.raises(SearchError):
            sh.count(long)
        with pytest.raises(SearchError):
            sh.find_first(long)
        with pytest.raises(SearchError):
            sh.batch_find_all(["ac", long])

    def test_pattern_at_cap_is_answered(self):
        text = "acgt" * 10
        sh = ShardedSpineIndex.build(text, shards=4, max_pattern_len=4)
        assert sh.find_all("acgt") == brute_occurrences(text, "acgt")


class TestQuerySemantics:
    """The cross-layer contract, on the sharded front end too."""

    def test_empty_pattern(self):
        sh = ShardedSpineIndex.build(PAPER_STRING, shards=2,
                                     max_pattern_len=4)
        assert sh.contains("") is True
        assert sh.find_first("") == 0
        with pytest.raises(SearchError):
            sh.find_all("")
        with pytest.raises(SearchError):
            sh.count("")
        with pytest.raises(SearchError):
            sh.batch_find_all([""])

    def test_foreign_pattern_is_clean_miss(self):
        sh = ShardedSpineIndex.build(PAPER_STRING, shards=2,
                                     max_pattern_len=4)
        assert sh.contains("zz") is False
        assert sh.find_all("zz") == []
        assert sh.count("zz") == 0
        assert sh.find_first("zz") is None
        (match,) = sh.batch_find_all(["zz"])
        assert match.status == "alphabet-miss"


class TestSnapshotLimits:
    def test_at_methods_match_flat_prefix(self):
        text = PAPER_STRING * 3
        sh = ShardedSpineIndex.build(text, shards=3, max_pattern_len=5)
        for limit in range(len(text) + 1):
            prefix = text[:limit]
            for pattern in ("ac", "ca", "aacc", "a"):
                assert sh.find_all(pattern, limit=limit) == \
                    brute_occurrences(prefix, pattern), (limit, pattern)
                assert sh.contains(pattern, limit=limit) == \
                    (pattern in prefix)

    def test_snapshot_guard_delegates(self):
        text = PAPER_STRING * 2
        sh = ShardedSpineIndex.build(text, shards=2, max_pattern_len=5)
        guard = SnapshotGuard(sh, limit=12)
        assert guard.find_all("ac") == \
            brute_occurrences(text[:12], "ac")
        assert guard.contains("aacc") == ("aacc" in text[:12])
        results = guard.batch_find_all(["ac", "zz"])
        assert results[0].starts == brute_occurrences(text[:12], "ac")
        assert results[1].status == "alphabet-miss"


class TestExtend:
    def test_tail_extend_matches_flat(self):
        sh = ShardedSpineIndex.build("aacc", shards=2,
                                     max_pattern_len=4)
        sh.extend("acaaca")
        flat = SpineIndex(PAPER_STRING)
        for pattern in ("ac", "ca", "aacc", "caac"):
            assert sh.find_all(pattern) == flat.find_all(pattern)
        assert len(sh) == len(flat)

    def test_split_on_threshold_creates_new_tail(self):
        sh = ShardedSpineIndex.build("ab", shards=1,
                                     max_pattern_len=3,
                                     split_threshold=4)
        assert sh.shard_count == 1
        sh.extend("abab")  # tail owned reaches 6 >= 4 -> split
        assert sh.shard_count == 2
        assert sh.stats()["shards"][-1]["owned_len"] == 0

    def test_sealed_shard_drains_overlap(self):
        sh = ShardedSpineIndex.build("", shards=1, max_pattern_len=4,
                                     split_threshold=6)
        text = "acgacgacgacgacgacg"
        for ch in text:  # one char at a time: worst-case draining
            sh.extend(ch)
        assert sh.shard_count > 1
        stats = sh.stats()
        for entry in stats["shards"][:-1]:
            if entry["start"] + entry["owned_len"] + sh.overlap \
                    <= len(sh):
                assert entry["pending_overlap"] == 0
        for pattern in ("acg", "gac", "cga", "acga"):
            assert sh.find_all(pattern) == \
                brute_occurrences(text, pattern)

    def test_extend_foreign_characters_raise(self):
        sh = ShardedSpineIndex.build("acgt", shards=1,
                                     max_pattern_len=4)
        with pytest.raises(AlphabetError):
            sh.extend("xyz")
        assert len(sh) == 4

    def test_packed_layer_is_immutable(self):
        sh = ShardedSpineIndex.build("acgt" * 4, shards=2,
                                     max_pattern_len=4, layer="packed")
        with pytest.raises(ConstructionError):
            sh.extend("ac")

    def test_service_routes_extend(self):
        sh = ShardedSpineIndex.build("aacc", shards=1,
                                     max_pattern_len=4,
                                     split_threshold=5)
        with QueryService(sh, threads=2) as svc:
            svc.extend("acaaca")
            assert svc.find_all("ac") == \
                brute_occurrences(PAPER_STRING, "ac")
        assert sh.shard_count == 2


class TestPersistence:
    def test_memory_save_load_round_trip(self, tmp_path):
        text = PAPER_STRING * 4
        target = str(tmp_path / "sh")
        sh = ShardedSpineIndex.build(text, shards=3, max_pattern_len=6,
                                     path=target)
        assert os.path.exists(os.path.join(target, "manifest.json"))
        loaded = ShardedSpineIndex.load(target)
        assert len(loaded) == len(text)
        assert loaded.max_pattern_len == 6
        for pattern in ("ac", "ca", "aacc"):
            assert loaded.find_all(pattern) == sh.find_all(pattern)

    def test_memory_layout_loads_as_packed(self, tmp_path):
        text = PAPER_STRING * 4
        target = str(tmp_path / "sh")
        ShardedSpineIndex.build(text, shards=2, max_pattern_len=6,
                                path=target)
        packed = ShardedSpineIndex.load(target, layer="packed")
        assert packed.layer == "packed"
        assert packed.find_all("ac") == \
            brute_occurrences(text, "ac")

    def test_disk_build_and_reopen(self, tmp_path):
        text = PAPER_STRING * 6
        target = str(tmp_path / "shd")
        with ShardedSpineIndex.build(text, shards=2, max_pattern_len=6,
                                     layer="disk", path=target) as sh:
            assert sh.find_all("acca") == \
                brute_occurrences(text, "acca")
        files = os.listdir(target)
        assert "manifest.json" in files
        assert sum(f.endswith(".pages") for f in files) == 2
        with ShardedSpineIndex.load(target) as loaded:
            assert loaded.layer == "disk"
            for pattern in ("ac", "caac", "aacca"):
                assert loaded.find_all(pattern) == \
                    brute_occurrences(text, pattern)

    def test_packed_cannot_save(self, tmp_path):
        sh = ShardedSpineIndex.build(PAPER_STRING, shards=2,
                                     max_pattern_len=4,
                                     layer="packed")
        with pytest.raises(StorageError):
            sh.save(str(tmp_path / "nope"))

    def test_load_rejects_garbage_dir(self, tmp_path):
        with pytest.raises(StorageError):
            ShardedSpineIndex.load(str(tmp_path))


class TestQuarantineRouting:
    """Every verb goes through the same fan-out: a quarantined shard
    fails all of them fast, not only ``find_all``."""

    def test_find_first_respects_quarantine(self):
        text = "ACGTACGTTACGGTACAACGTTGCA" * 4
        sh = ShardedSpineIndex.build(text, shards=4, max_pattern_len=8)
        sh.quarantine(0)
        for verb in (sh.contains, sh.find_first, sh.find_all, sh.count):
            with pytest.raises(CircuitOpenError):
                verb("ACGT")
