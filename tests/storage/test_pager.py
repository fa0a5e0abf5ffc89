"""PageFile tests (memory- and file-backed)."""

import os

import pytest

from repro.exceptions import StorageError
from repro.storage import PageFile


class TestMemoryBacked:
    def test_allocate_read_write(self):
        pf = PageFile(page_size=128)
        pid = pf.allocate_page()
        assert pid == 0
        data = bytearray(128)
        data[:4] = b"abcd"
        pf.write_page(pid, data)
        assert pf.read_page(pid)[:4] == bytearray(b"abcd")

    def test_fresh_page_reads_zero(self):
        pf = PageFile(page_size=64)
        pid = pf.allocate_page()
        assert pf.read_page(pid) == bytearray(64)

    def test_out_of_range(self):
        pf = PageFile(page_size=64)
        with pytest.raises(StorageError):
            pf.read_page(0)
        pf.allocate_page()
        with pytest.raises(StorageError):
            pf.read_page(1)
        with pytest.raises(StorageError):
            pf.write_page(-1, bytearray(64))

    def test_wrong_size_write(self):
        pf = PageFile(page_size=64)
        pid = pf.allocate_page()
        with pytest.raises(StorageError):
            pf.write_page(pid, bytearray(10))

    def test_invalid_page_size(self):
        with pytest.raises(StorageError):
            PageFile(page_size=0)

    def test_closed_rejects_ops(self):
        pf = PageFile(page_size=64)
        pf.allocate_page()
        pf.close()
        with pytest.raises(StorageError):
            pf.read_page(0)


class TestFileBacked:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with PageFile(path=path, page_size=256) as pf:
            a = pf.allocate_page()
            b = pf.allocate_page()
            buf = bytearray(256)
            buf[0] = 7
            pf.write_page(b, buf)
            assert pf.read_page(b)[0] == 7
            assert pf.read_page(a) == bytearray(256)

    def test_sync_writes_counted(self, tmp_path):
        path = str(tmp_path / "pages.bin")
        with PageFile(path=path, page_size=128, sync_writes=True) as pf:
            pid = pf.allocate_page()
            pf.write_page(pid, bytearray(128))
            assert pf.metrics.sync_writes == 1


class TestMetrics:
    def test_sequential_vs_random(self):
        pf = PageFile(page_size=64)
        for _ in range(4):
            pf.allocate_page()
        pf.read_page(0)
        pf.read_page(1)   # sequential
        pf.read_page(3)   # random
        pf.read_page(2)   # random
        m = pf.metrics
        assert m.reads == 4
        assert m.sequential_reads == 1
        assert m.random_reads == 3

    def test_snapshot_and_reset(self):
        pf = PageFile(page_size=64)
        pf.allocate_page()
        pf.read_page(0)
        snap = pf.metrics.snapshot()
        assert snap["reads"] == 1
        pf.metrics.reset()
        assert pf.metrics.reads == 0


class TestChecksums:
    def test_checksummed_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        with PageFile(path=path, page_size=256, checksums=True) as pf:
            assert pf.payload_size == 248
            pid = pf.allocate_page()
            buf = bytearray(256)
            buf[:5] = b"hello"
            pf.write_page(pid, buf)
            assert pf.read_page(pid)[:5] == bytearray(b"hello")

    def test_flip_detected(self, tmp_path):
        from repro.exceptions import CorruptPageError

        path = str(tmp_path / "flip.bin")
        pf = PageFile(path=path, page_size=256, checksums=True)
        pid = pf.allocate_page()
        buf = bytearray(256)
        buf[10] = 42
        pf.write_page(pid, buf)
        pf.close()
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\x43")
        pf = PageFile(path=path, page_size=256, checksums=True)
        pf._page_count = 1
        with pytest.raises(CorruptPageError) as excinfo:
            pf.read_page(pid)
        assert excinfo.value.page_id == pid
        assert pf.metrics.checksum_failures == 1
        # verify=False still reads the raw bytes (fsck's probe path)
        assert pf.read_page(pid, verify=False)[10] == 0x43
        pf.close(sync=False)

    def test_never_written_page_is_all_zero_corruption(self, tmp_path):
        from repro.exceptions import CorruptPageError

        path = str(tmp_path / "zero.bin")
        pf = PageFile(path=path, page_size=128, checksums=True)
        pf.allocate_page()
        with pytest.raises(CorruptPageError) as excinfo:
            pf.read_page(0)
        assert excinfo.value.generation is None
        pf.close(sync=False)

    def test_trailer_carries_generation(self, tmp_path):
        path = str(tmp_path / "gen.bin")
        pf = PageFile(path=path, page_size=128, checksums=True)
        pf.generation = 7
        pid = pf.allocate_page()
        pf.write_page(pid, bytearray(128))
        buf = pf.read_page(pid)
        assert pf.verify_page(pid, buf)
        import struct as struct_mod
        _crc, gen = struct_mod.unpack_from("<II", buf, 120)
        assert gen == 7
        pf.close()

    def test_page_too_small_for_trailer(self):
        with pytest.raises(StorageError):
            PageFile(page_size=8, checksums=True)


class TestDurabilitySatellites:
    def test_short_write_completed_by_loop(self, tmp_path):
        from repro.storage import clear_failpoints, fail_at

        path = str(tmp_path / "short.bin")
        pf = PageFile(path=path, page_size=512)
        pid = pf.allocate_page()
        payload = bytearray(b"\xab" * 512)
        fail_at("pager.write", mode="short", nth=1)
        try:
            pf.write_page(pid, payload)
        finally:
            clear_failpoints()
        assert pf.read_page(pid) == payload
        pf.close()

    def test_zero_progress_write_raises(self, tmp_path, monkeypatch):
        import os as os_mod

        path = str(tmp_path / "stuck.bin")
        pf = PageFile(path=path, page_size=64)
        pid = pf.allocate_page()
        monkeypatch.setattr(os_mod, "pwritev",
                            lambda fd, buffers, offset: 0)
        with pytest.raises(StorageError, match="no progress"):
            pf.write_page(pid, bytearray(64))
        monkeypatch.undo()
        pf.close(sync=False)

    def test_close_flushes_before_releasing_fd(self, tmp_path):
        path = str(tmp_path / "durable.bin")
        pf = PageFile(path=path, page_size=128)  # no sync_writes
        pid = pf.allocate_page()
        buf = bytearray(128)
        buf[:4] = b"SAFE"
        pf.write_page(pid, buf)
        assert pf._writes_since_sync
        pf.close()
        with open(path, "rb") as handle:
            assert handle.read(4) == b"SAFE"

    def test_close_is_idempotent_after_sync_skip(self, tmp_path):
        path = str(tmp_path / "skip.bin")
        pf = PageFile(path=path, page_size=128)
        pf.allocate_page()
        pf.write_page(0, bytearray(128))
        pf.close(sync=False)
        pf.close()

    def test_fsync_skipped_when_clean(self, tmp_path):
        from repro.storage import clear_failpoints, fail_at

        path = str(tmp_path / "clean.bin")
        pf = PageFile(path=path, page_size=128)
        pf.allocate_page()
        pf.write_page(0, bytearray(128))
        pf.fsync()
        assert not pf._writes_since_sync
        pf.fsync()  # no-op; would be cheap even under a failpoint
        pf.close()


class TestPhysicalIO:
    """The one-syscall page path: ``preadv`` into the frame,
    ``pwritev`` of payload and trailer."""

    @staticmethod
    def _expected(payload, page_id, gen):
        import struct as struct_mod
        import zlib

        from repro.storage.pager import _TRAILER

        seed = zlib.crc32(struct_mod.pack("<QI", page_id, gen))
        return payload + _TRAILER.pack(zlib.crc32(payload, seed), gen)

    def test_interior_short_read_completed(self, tmp_path, monkeypatch):
        import os as os_mod

        path = str(tmp_path / "short-read.bin")
        pf = PageFile(path=path, page_size=512, checksums=True)
        pid = pf.allocate_page()
        page = bytearray(range(256)) * 2
        pf.write_page(pid, page)
        real = os_mod.preadv
        calls = []

        def half_preadv(fd, buffers, offset):
            (buf,) = buffers
            calls.append(offset)
            return real(fd, [memoryview(buf)[:256]], offset)

        monkeypatch.setattr(os_mod, "preadv", half_preadv)
        got = pf.read_page(pid)
        monkeypatch.undo()
        assert got[:pf.payload_size] == page[:pf.payload_size]
        assert calls == [0, 256]
        pf.close()

    def test_truncated_page_zero_filled_and_corrupt(self, tmp_path):
        from repro.exceptions import CorruptPageError

        path = str(tmp_path / "trunc.bin")
        pf = PageFile(path=path, page_size=256, checksums=True)
        pf.allocate_page()
        pid = pf.allocate_page()
        pf.write_page(0, bytearray(b"\x11" * 256))
        pf.write_page(pid, bytearray(b"\x22" * 256))
        os.truncate(path, 256 + 100)
        raw = pf.read_page(pid, verify=False)
        assert raw == bytearray(b"\x22" * 100 + bytes(156))
        with pytest.raises(CorruptPageError) as excinfo:
            pf.read_page(pid)
        assert excinfo.value.page_id == pid
        assert pf.metrics.checksum_failures == 1
        pf.close(sync=False)

    @pytest.mark.parametrize("backed", ["file", "memory"])
    def test_written_bytes_are_payload_and_trailer(self, tmp_path, backed):
        path = str(tmp_path / "bytes.bin") if backed == "file" else None
        pf = PageFile(path=path, page_size=128, checksums=True)
        pf.generation = 5
        pf.allocate_page()
        pid = pf.allocate_page()
        page = bytearray(os.urandom(128))
        pf.write_page(pid, page)
        expected = self._expected(bytes(page[:120]), pid, 5)
        assert bytes(pf.read_page(pid, verify=False)) == expected
        if path is not None:
            pf.fsync()
            with open(path, "rb") as handle:
                handle.seek(pid * 128)
                assert handle.read(128) == expected
        pf.close()

    def test_retry_exhausted_names_page(self, tmp_path):
        from repro.exceptions import RetryExhaustedError
        from repro.resilience import RetryPolicy
        from repro.storage import clear_failpoints, fail_at

        pf = PageFile(path=str(tmp_path / "retry.bin"), page_size=128,
                      retry_policy=RetryPolicy(retries=2, base_backoff=0,
                                               jitter=0))
        for _ in range(4):
            pf.allocate_page()
        fail_at("pager.read", mode="oserror", nth=1, count=10)
        try:
            with pytest.raises(RetryExhaustedError) as excinfo:
                pf.read_page(3)
        finally:
            clear_failpoints()
        assert excinfo.value.site == "page 3 read"
        assert excinfo.value.attempts == 3
        assert pf.metrics.read_retries == 2
        pf.close()
