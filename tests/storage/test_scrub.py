"""Background scrubber and self-healing shard repair.

The acceptance property: scrub detects an injected corrupt shard, the
sharded index serves degraded partial answers while the shard is
quarantined, and automatic repair returns it to non-degraded answers —
all without a restart."""

import os

import pytest

from repro.alphabet import dna_alphabet
from repro.core.index import SpineIndex
from repro.disk import DiskSpineIndex
from repro.exceptions import CircuitOpenError, StorageError
from repro.resilience import PartialResult
from repro.sequences import generate_dna
from repro.shard import ShardedSpineIndex
from repro.storage.scrub import Scrubber, scrub_index


def _corrupt_committed_page(index, path, skip=2):
    """Flip bytes inside a committed data page of a disk index."""
    page_id = sorted(index._ledger.committed)[skip]
    with open(path, "r+b") as handle:
        handle.seek(page_id * index.pagefile.page_size + 64)
        handle.write(b"\xfe" * 32)
    return page_id


class TestScrubber:
    def test_clean_index_scrubs_clean(self, tmp_path):
        path = str(tmp_path / "clean.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as ix:
            ix.extend(generate_dna(800, seed=31))
            ix.checkpoint()
        ix = DiskSpineIndex.open(path, buffer_pages=8)
        report = scrub_index(ix)
        assert report["pages_checked"] > 0
        assert report["corrupt"] == [] and report["errors"] == []
        ix.close()

    def test_detects_corrupt_page(self, tmp_path):
        path = str(tmp_path / "bad.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as ix:
            ix.extend(generate_dna(800, seed=32))
            ix.checkpoint()
        ix = DiskSpineIndex.open(path, buffer_pages=4)
        page_id = _corrupt_committed_page(ix, path)
        report = scrub_index(ix)
        assert report["corrupt"] == [{"shard": None,
                                      "pages": [page_id]}]
        ix.close()

    def test_memory_layers_scrub_zero_pages(self):
        report = scrub_index(SpineIndex("ACGTACGT"))
        assert report["pages_checked"] == 0 and not report["corrupt"]

    def test_background_thread_sweeps(self, tmp_path):
        path = str(tmp_path / "bg.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8) as ix:
            ix.extend(generate_dna(400, seed=33))
            ix.checkpoint()
        ix = DiskSpineIndex.open(path, buffer_pages=8)
        with Scrubber(ix, interval=0.05) as scrubber:
            deadline = 100
            while scrubber.sweeps == 0 and deadline:
                import time

                time.sleep(0.05)
                deadline -= 1
        assert scrubber.sweeps >= 1
        assert scrubber.last_report["corrupt"] == []
        ix.close()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Scrubber(None, interval=0)
        with pytest.raises(ValueError):
            Scrubber(None, pages_per_batch=0)


class TestQuarantineRepair:
    def _build(self, tmp_path, chars=3000, shards=3):
        text = generate_dna(chars, seed=34)
        index = ShardedSpineIndex.build(
            text, shards=shards, max_pattern_len=12, layer="disk",
            path=str(tmp_path / "shards"), buffer_pages=8)
        index.enable_breakers()
        index.degraded = True
        return index, text

    def test_scrub_quarantines_and_repairs(self, tmp_path):
        index, text = self._build(tmp_path)
        expected = {
            p: sorted(SpineIndex(text.upper()).find_all(p))
            for p in ("ACGT", "GGTT", "TAC")}
        victim = index._shards[1].index
        _corrupt_committed_page(
            victim, os.path.join(str(tmp_path / "shards"),
                                 "shard-1.pages"))
        report = scrub_index(index, repair=True)
        assert [c["shard"] for c in report["corrupt"]] == [1]
        assert report["repaired_shards"] == [1]
        assert index.quarantined_shards == []
        for pattern, occurrences in expected.items():
            result = index.find_all(pattern)
            assert getattr(result, "complete", True)
            assert sorted(result) == occurrences
        # the rebuilt shard scrubs clean
        assert scrub_index(index)["corrupt"] == []
        index.close()

    def test_quarantined_shard_degrades_then_recovers(self, tmp_path):
        index, text = self._build(tmp_path)
        index.quarantine(1, reason="test")
        assert index.quarantined_shards == [1]
        result = index.find_all("ACGT")
        assert isinstance(result, PartialResult)
        assert not result.complete and 1 in result.failed_shards
        index.repair_shard(1)
        assert index.quarantined_shards == []
        result = index.find_all("ACGT")
        assert getattr(result, "complete", True)
        index.close()

    def test_strict_mode_raises_circuit_open(self, tmp_path):
        index, _ = self._build(tmp_path)
        index.degraded = False
        index.quarantine(0, reason="test")
        with pytest.raises(CircuitOpenError, match="quarantined"):
            index.find_all("ACGT")
        index.close()

    def test_extends_during_quarantine_reach_repair(self, tmp_path):
        index, text = self._build(tmp_path)
        tail = index.shard_count - 1
        index.quarantine(tail, reason="test")
        extra = generate_dna(400, seed=35)
        index.extend(extra)            # lands in the span journal only
        assert len(index) == len(text) + len(extra)
        index.repair_shard(tail)
        oracle = SpineIndex((text + extra).upper())
        for pattern in ("ACGT", "GGTT", "TTAA"):
            assert sorted(index.find_all(pattern)) == \
                sorted(oracle.find_all(pattern))
        index.close()

    def test_cli_repair_keeps_unsaved_extends(self, tmp_path):
        # Extends past the last save() live only in the tail shard's
        # log; a repair must rebuild from that log, not from a copy cut
        # back to the checkpoint.
        from repro.cli import main

        index, text = self._build(tmp_path)
        extra = generate_dna(400, seed=35)
        index.extend(extra)
        tail = index.shard_count - 1
        index.close()
        directory = str(tmp_path / "shards")
        pages = os.path.join(directory, f"shard-{tail}.pages")
        probe = DiskSpineIndex.open(pages, wal_fsync=None)
        page_id = min(set(probe._ledger.committed)
                      - set(probe._cl.pages))
        page_size = probe.pagefile.page_size
        probe.close()
        with open(pages, "r+b") as handle:
            handle.seek(page_id * page_size + 64)
            handle.write(b"\xfe" * 32)

        assert main(["scrub", directory, "--repair"]) == 0
        reloaded = ShardedSpineIndex.load(directory)
        full = (text + extra).upper()
        assert len(reloaded) == len(full) == 3400
        for pattern in ("ACGT", "GGTT", "TTAA"):
            expected = []
            at = full.find(pattern)
            while at != -1:
                expected.append(at)
                at = full.find(pattern, at + 1)
            assert sorted(reloaded.find_all(pattern)) == expected
        reloaded.close()

    def test_repair_never_hands_over_a_stale_log(self, tmp_path):
        # Extends served with the log disabled make the log's unreplayed
        # records stale; the rebuilt shard must not replay them later.
        directory = str(tmp_path / "stale")
        text = generate_dna(1500, seed=3)
        index = ShardedSpineIndex.build(
            text, shards=2, max_pattern_len=12, layer="disk",
            path=directory, buffer_pages=8)
        index.extend("AAAAAAAA")
        index.extend("CCCCCCCC")
        index.close()
        index = ShardedSpineIndex.load(directory, wal_fsync=None)
        index.extend("GGGGGGGG")
        index.enable_breakers()
        index.quarantine(1, reason="test")
        index.repair_shard(1)
        index.close()
        reloaded = ShardedSpineIndex.load(directory)
        oracle = SpineIndex((text + "GGGGGGGG").upper())
        assert len(reloaded) == len(text) + 8
        for pattern in ("AAAA", "CCCC", "GGGG", "ACGT"):
            assert sorted(reloaded.find_all(pattern)) == \
                sorted(oracle.find_all(pattern))
        reloaded.close()

    def test_repair_without_breakers_stays_quarantined(self, tmp_path):
        text = generate_dna(1500, seed=36)
        index = ShardedSpineIndex.build(
            text, shards=2, max_pattern_len=12, layer="disk",
            path=str(tmp_path / "nb"), buffer_pages=8)
        _corrupt_committed_page(
            index._shards[0].index,
            os.path.join(str(tmp_path / "nb"), "shard-0.pages"))
        # breakers disabled → the scrubber reports but does not repair
        report = scrub_index(index, repair=True)
        assert [c["shard"] for c in report["corrupt"]] == [0]
        assert report["repaired_shards"] == []
        assert index.quarantined_shards == []
        index.close()

    def test_memory_shards_cannot_repair(self):
        index = ShardedSpineIndex.build(
            generate_dna(600, seed=37), shards=2, max_pattern_len=8,
            layer="memory")
        index.quarantine(0, reason="test")
        with pytest.raises(StorageError, match="disk"):
            index.repair_shard(0)

    def test_quarantine_validates_shard_id(self, tmp_path):
        from repro.exceptions import SearchError

        index, _ = self._build(tmp_path, shards=2)
        with pytest.raises(SearchError, match="no shard"):
            index.quarantine(9)
        index.close()

    def test_stats_and_health_report_quarantine(self, tmp_path):
        from repro.obs.health import StatsServer

        index, _ = self._build(tmp_path)
        server = StatsServer(index=index)
        doc, status = server.health()
        assert doc["status"] == "ok" and status == 200
        index.quarantine(2, reason="test")
        assert index.stats()["quarantined"] == [2]
        doc, status = server.health()
        assert doc["status"] == "degraded" and status == 200
        assert "degraded_reason" in doc
        index.repair_shard(2)
        doc, _ = server.health()
        assert doc["status"] == "ok"
        server.close()
        index.close()

    def test_reload_after_repair_round_trips(self, tmp_path):
        index, text = self._build(tmp_path)
        _corrupt_committed_page(
            index._shards[0].index,
            os.path.join(str(tmp_path / "shards"), "shard-0.pages"))
        report = scrub_index(index, repair=True)
        assert report["repaired_shards"] == [0]
        index.save()
        index.close()
        reloaded = ShardedSpineIndex.load(str(tmp_path / "shards"))
        oracle = SpineIndex(text.upper())
        assert sorted(reloaded.find_all("ACGT")) == \
            sorted(oracle.find_all("ACGT"))
        assert scrub_index(reloaded)["corrupt"] == []
        reloaded.close()
