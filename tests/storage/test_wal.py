"""Write-ahead log unit tests plus DiskSpineIndex recovery semantics:
replay-on-open, the log kept across checkpoints, abort rewinding it,
damage inside the checkpoint skipped, and legacy files staying
WAL-less."""

import os
import struct

import pytest

from repro.alphabet import dna_alphabet
from repro.disk import DiskSpineIndex
from repro.exceptions import StorageError
from repro.sequences import generate_dna
from repro.storage.fsck import fsck
from repro.storage.wal import (
    FSYNC_POLICIES, WAL_SUFFIX, WriteAheadLog, scan_wal, wal_path_for)


class TestFraming:
    def test_append_scan_roundtrip(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, base_generation=3)
        wal.append(b"\x00\x01\x02", generation=3, lsn=3)
        wal.append(b"\x03", generation=3, lsn=4)
        wal.close()
        scan = scan_wal(path)
        assert scan.exists and scan.header_ok
        assert scan.base_generation == 3
        assert [r.payload for r in scan.records] == [b"\x00\x01\x02",
                                                     b"\x03"]
        assert [r.lsn for r in scan.records] == [3, 4]
        assert scan.last_lsn == 4
        assert scan.tail_bytes == 0 and scan.torn_reason is None

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(str(tmp_path / "absent.wal"))
        assert not scan.exists
        assert scan.records == [] and scan.last_lsn == 0

    def test_wal_path_for(self):
        assert wal_path_for("eco.spine") == "eco.spine" + WAL_SUFFIX

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="fsync policy"):
            WriteAheadLog(str(tmp_path / "x.wal"), fsync_policy="yolo")
        assert set(FSYNC_POLICIES) == {"always", "interval", "off"}

    def test_closed_log_rejects_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "c.wal"))
        wal.close()
        assert wal.closed
        with pytest.raises(StorageError, match="closed"):
            wal.append(b"\x00", generation=0, lsn=1)


class TestTornTail:
    def test_garbage_tail_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        wal = WriteAheadLog(path)
        wal.append(b"\x00\x01", generation=1, lsn=2)
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x99" * 11)   # torn frame header
        scan = scan_wal(path)
        assert scan.torn_reason is not None
        assert scan.tail_bytes == 11 and len(scan.records) == 1

        reopened = WriteAheadLog(path)
        assert reopened.records == 1
        assert [r.payload for r in reopened.recovered] == [b"\x00\x01"]
        reopened.close()
        assert scan_wal(path).torn_reason is None   # physically cut

    def test_corrupt_payload_stops_scan(self, tmp_path):
        path = str(tmp_path / "crc.wal")
        wal = WriteAheadLog(path)
        wal.append(b"\x00\x01\x02\x03", generation=1, lsn=4)
        wal.append(b"\x00", generation=1, lsn=5)
        first_end = wal._offset - (24 + 1)   # frame header + payload
        wal.close()
        with open(path, "r+b") as handle:
            handle.seek(first_end - 1)       # last payload byte of #1
            handle.write(b"\xff")
        scan = scan_wal(path)
        assert len(scan.records) == 0        # scan stops at record 1
        assert scan.torn_reason == "frame CRC mismatch"

    def test_unreadable_header_reinitializes(self, tmp_path):
        path = str(tmp_path / "hdr.wal")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 20)
        wal = WriteAheadLog(path)
        assert wal.records == 0 and wal.recovered == []
        wal.append(b"\x01", generation=0, lsn=1)
        wal.close()
        assert len(scan_wal(path).records) == 1

    def test_fresh_discards_previous_log(self, tmp_path):
        path = str(tmp_path / "fresh.wal")
        wal = WriteAheadLog(path)
        wal.append(b"\x00", generation=9, lsn=1)
        wal.close()
        wal = WriteAheadLog(path, fresh=True, base_generation=0)
        assert wal.records == 0 and wal.recovered == []
        wal.close()


class TestTruncateRewind:
    def test_rewind_to_position_keeps_earlier_records(self, tmp_path):
        # The log is never emptied: abort() returns to a recorded
        # position, keeping every record before it.
        assert not hasattr(WriteAheadLog, "truncate")
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path)
        wal.append(b"\x00\x01", generation=0, lsn=2)
        mark = wal.position
        wal.append(b"\x02", generation=1, lsn=3)
        wal.rewind(*mark)
        assert wal.records == 1 and wal.last_lsn == 2
        wal.append(b"\x03", generation=1, lsn=3)
        wal.close()
        scan = scan_wal(path)
        assert scan.base_generation == 0
        assert [r.lsn for r in scan.records] == [2, 3]
        assert scan.start_lsn == 0 and scan.codes(0, 3) == b"\x00\x01\x03"

    def test_rewind_cuts_at_frame_boundary(self, tmp_path):
        path = str(tmp_path / "r.wal")
        wal = WriteAheadLog(path)
        wal.append(b"\x00", generation=0, lsn=1)
        keep = wal._offset
        wal.append(b"\x01\x02", generation=0, lsn=3)
        wal.rewind(keep, records=1, last_lsn=1)
        assert wal.records == 1 and wal.last_lsn == 1
        wal.close()
        assert [r.lsn for r in scan_wal(path).records] == [1]

    def test_rewind_outside_log_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "bad.wal"))
        with pytest.raises(StorageError, match="rewind"):
            wal.rewind(3, records=0, last_lsn=0)
        wal.close()


class TestDiskRecovery:
    """extend → crash → reopen must serve the extends back (tentpole
    acceptance: byte-identical to the pre-crash state)."""

    def _answers(self, index, patterns=("ACGT", "GGT", "TTA", "CAC")):
        return {p: sorted(index.find_all(p)) for p in patterns}

    def test_replay_restores_unchekpointed_extends(self, tmp_path):
        path = str(tmp_path / "replay.spine")
        text = generate_dna(600, seed=17)
        tail = generate_dna(150, seed=18)
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(text)
        ix.checkpoint()
        ix.extend(tail)
        before = self._answers(ix)
        ix.crash()

        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert len(reopened) == len(text) + len(tail)
        assert reopened.text == (text + tail).upper()
        assert self._answers(reopened) == before
        # replay does not change the durable generation
        assert reopened.generation == 1
        reopened.close()

    def test_checkpoint_keeps_the_log(self, tmp_path):
        path = str(tmp_path / "trunc.spine")
        text = generate_dna(300, seed=19)
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(text)
        ix.checkpoint()
        ix.extend("ACGTACGT")
        assert ix.wal.records == 2
        ix.checkpoint()
        assert ix.wal.records == 2 and ix.wal.last_lsn == len(ix)
        assert ix.wal.base_generation == ix.generation
        ix.close()
        scan = scan_wal(wal_path_for(path))
        assert [r.lsn for r in scan.records] == [300, 308]
        assert scan.start_lsn == 0 and scan.base_generation == 2
        codes = scan.codes(0, 308)
        assert dna_alphabet().decode(codes) == text.upper() + "ACGTACGT"

    def test_abort_rewinds_wal_to_checkpoint(self, tmp_path):
        """abort() after extends with an open WAL — the log is rewound
        to the checkpoint's end, and a reopen serves exactly it."""
        path = str(tmp_path / "abort.spine")
        text = generate_dna(500, seed=20)
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(text)
        ix.checkpoint()
        checkpoint_answers = self._answers(ix)
        ix.extend(generate_dna(200, seed=21))
        assert ix.wal.records == 2
        ix.abort()
        scan = scan_wal(wal_path_for(path))
        assert [r.lsn for r in scan.records] == [len(text)]
        assert scan.torn_reason is None

        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert len(reopened) == len(text)
        assert reopened.text == text.upper()
        assert self._answers(reopened) == checkpoint_answers
        reopened.close()

    def test_clean_close_replays_on_reopen(self, tmp_path):
        path = str(tmp_path / "clean.spine")
        text = generate_dna(400, seed=22)
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(text)
        ix.checkpoint()
        ix.extend("GGGGTTTT")
        ix.close()            # close ≠ checkpoint: the WAL survives
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened.text == text.upper() + "GGGGTTTT"
        reopened.close()

    def test_stale_records_skipped_after_checkpoint(self, tmp_path):
        # Records stamped before the recovered generation are already
        # inside the checkpoint and must not be replayed twice.
        path = str(tmp_path / "stale.spine")
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(generate_dna(300, seed=23))
        ix.checkpoint()
        ix.extend("ACGT")        # gen-1 stamped record
        ix.checkpoint()          # record now inside the checkpoint
        ix.extend("TTTT")        # gen-2 stamped record
        n = len(ix)
        ix.crash()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert len(reopened) == n
        assert reopened.text.endswith("ACGTTTTT")
        reopened.close()

    def test_lsn_discontinuity_truncates_never_replays(self, tmp_path):
        path = str(tmp_path / "lsn.spine")
        text = generate_dna(300, seed=24)
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(text)
        ix.checkpoint()
        ix.extend("ACGT")
        ix.extend("GGTT")
        ix.crash()
        # Corrupt the payload of the first record past the checkpoint:
        # its frame fails CRC, so the next record (valid, but
        # LSN-discontinuous with the checkpoint) must be cut, not
        # replayed out of order.
        wal_path = wal_path_for(path)
        with open(wal_path, "r+b") as handle:
            # header + the checkpointed record + first frame header
            handle.seek(16 + (24 + 300) + 16)
            handle.write(b"\xff" * 2)
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened.text == text.upper()   # checkpoint only
        reopened.close()
        # and the cut is physical: a second reopen finds a clean log
        scan = scan_wal(wal_path)
        assert [r.lsn for r in scan.records] == [300]
        assert scan.torn_reason is None and scan.damaged == []

    def test_damage_inside_checkpoint_keeps_later_records(self,
                                                           tmp_path):
        # The log keeps checkpointed records; a flipped byte in one of
        # them must not cost the acknowledged extends after it.
        path = str(tmp_path / "damage.spine")
        text_a = generate_dna(300, seed=24)
        text_b = generate_dna(40, seed=38)
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(text_a)
        ix.checkpoint()
        ix.extend(text_b)
        ix.crash()
        wal_path = wal_path_for(path)
        with open(wal_path, "r+b") as handle:
            handle.seek(16 + 24 + 100)   # a payload byte of A's record
            handle.write(b"\xff")
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened.text == (text_a + text_b).upper()
        reopened.close()
        report = fsck(path)
        assert report["ok"]
        assert report["wal"]["damaged"] == [{"offset": 16,
                                             "bytes": 24 + 300}]
        assert report["wal"]["covers_checkpoint"] is False
        assert any("damaged" in w for w in report["warnings"])

    def test_checkpoint_without_log_restarts_it(self, tmp_path):
        # A session with the log disabled checkpoints text the log never
        # saw; a record that happens to continue at the new length
        # belongs to the bypassed history and must not replay.
        path = str(tmp_path / "stale-history.spine")
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(generate_dna(300, seed=39))
        ix.checkpoint()
        ix.extend("AAAAAAAA")
        ix.extend("CCCCCCCC")
        ix.crash()
        ix = DiskSpineIndex.open(path, buffer_pages=8, wal_fsync=None)
        ix.extend("GGGGGGGG")
        ix.checkpoint()
        expected = ix.text
        ix.close()
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened.text == expected
        assert reopened.wal.records == 0
        reopened.close()

    def test_wal_disabled_open_ignores_log(self, tmp_path):
        path = str(tmp_path / "nowal.spine")
        text = generate_dna(300, seed=25)
        ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8)
        ix.extend(text)
        ix.checkpoint()
        ix.extend("ACGTACGT")
        ix.crash()
        reopened = DiskSpineIndex.open(path, buffer_pages=8,
                                       wal_fsync=None)
        assert reopened.wal is None
        assert reopened.text == text.upper()   # no replay
        reopened.close()

    def test_fsync_policies_accepted_end_to_end(self, tmp_path):
        for policy in FSYNC_POLICIES:
            path = str(tmp_path / f"{policy}.spine")
            ix = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                                buffer_pages=8, wal_fsync=policy,
                                wal_fsync_interval=4)
            ix.extend(generate_dna(200, seed=26))
            ix.checkpoint()
            for _ in range(6):
                ix.extend("ACGT")
            n = len(ix)
            ix.crash()
            reopened = DiskSpineIndex.open(path, buffer_pages=8)
            # simulated crashes never lose page-cache contents, so
            # every policy replays fully here; the policies differ
            # only in power-loss exposure
            assert len(reopened) == n
            reopened.close()


class TestLegacyFormats:
    """ISSUE satellite: v1/v2 files open cleanly with the WAL
    disabled — the sidecar is a v3-only feature."""

    def test_version2_file_has_no_wal(self, tmp_path):
        path = str(tmp_path / "v2.spine")
        text = generate_dna(400, seed=27)
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8, _format=2) as ix:
            ix.extend(text)
            ix.checkpoint()
            assert ix.wal is None
        assert not os.path.exists(wal_path_for(path))
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened._meta_format == 2
        assert reopened.wal is None
        reopened.extend("ACGT")          # extends still work, un-logged
        assert not os.path.exists(wal_path_for(path))
        assert len(reopened) == len(text) + 4
        reopened.close()

    def test_stray_wal_next_to_legacy_file_is_ignored(self, tmp_path):
        path = str(tmp_path / "v2b.spine")
        with DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                            buffer_pages=8, _format=2) as ix:
            ix.extend(generate_dna(200, seed=28))
            ix.checkpoint()
        # plant a WAL-looking sidecar; the legacy open must not touch it
        with open(wal_path_for(path), "wb") as handle:
            handle.write(struct.pack("<4sHHq", b"SPWL", 1, 0, 0))
        reopened = DiskSpineIndex.open(path, buffer_pages=8)
        assert reopened.wal is None
        assert len(reopened) == 200
        reopened.close()
