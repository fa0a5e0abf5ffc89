"""Fixed-size page storage over a real file (or memory).

``PageFile`` is deliberately boring: numbered 4-KiB pages, explicit
``read_page``/``write_page``, physical-I/O counters, optional
synchronous-write mode mirroring the paper's ``O_SYNC`` experiments.
The buffer pool (:mod:`repro.storage.buffer`) sits on top.

Durability hardening (see ``docs/durability.md``):

* physical writes loop over ``os.pwrite`` until every byte lands — a
  short write is completed, zero progress raises ``StorageError``
  (before, a short write was a silent torn page);
* physical reads loop over ``os.pread`` so an interior short read is
  completed; reads hitting a transient ``OSError`` are retried under a
  :class:`~repro.resilience.RetryPolicy` (bounded attempts,
  exponential backoff with a jitter cap — ``retry_policy=`` swaps the
  default, e.g. to also retry ``CorruptPageError`` on media where a
  re-read may return different bytes); exhaustion raises
  :class:`~repro.exceptions.RetryExhaustedError` carrying the attempt
  count;
* ``checksums=True`` reserves the last 8 bytes of every page for a
  trailer — CRC32 over (page id, generation, payload) plus the
  checkpoint generation that wrote the page — stamped on every write
  and verified on every read; a mismatch raises
  :class:`~repro.exceptions.CorruptPageError` and is counted as a
  ``storage.corruption.pages`` metric / ``corrupt-page`` trace event;
* ``close()`` fsyncs before releasing the descriptor, so a cleanly
  closed file is durable even without ``sync_writes``;
* every physical operation passes an armed failpoint site
  (:mod:`repro.storage.failpoints`), so crash behaviour is *testable*.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.exceptions import CorruptPageError, StorageError
from repro.obs import get_registry
from repro.obs.trace import get_tracer
from repro.resilience.retry import RetryPolicy
from repro.storage.failpoints import CrashInjected, get_failpoints
from repro.storage.metrics import IOMetrics

#: Per-page trailer in checksum mode: CRC32, writing generation.
_TRAILER = struct.Struct("<II")

_FAILPOINTS = get_failpoints()


class PageFile:
    """A growable array of fixed-size pages.

    Parameters
    ----------
    path:
        Backing file path; ``None`` keeps pages in memory (still counted
        as physical I/O — useful for fast experiments with identical
        accounting).
    page_size:
        Bytes per page.
    sync_writes:
        When true, every physical write is flushed (``os.fsync``) —
        the paper's ``O_SYNC`` configuration — and counted as such.
    checksums:
        When true, the last ``8`` bytes of every page hold a CRC32 +
        generation trailer, stamped on write and verified on read.
        Callers must then pack records only into the first
        :attr:`payload_size` bytes of each page.
    retry_policy:
        The :class:`~repro.resilience.RetryPolicy` governing read
        retries. ``None`` means the historical default (``OSError``
        only, ``READ_RETRIES`` retries, ``RETRY_BACKOFF`` base). A
        policy whose ``retryable`` includes
        :class:`~repro.exceptions.CorruptPageError` re-reads and
        re-verifies on checksum failure; each failed verification is
        still counted individually in ``checksum_failures``.
    """

    #: Read attempts beyond the first on transient ``OSError``
    #: (default ``retry_policy`` budget).
    READ_RETRIES = 3
    #: Base backoff between read retries (doubles per attempt).
    RETRY_BACKOFF = 0.002

    def __init__(self, path=None, page_size=4096, sync_writes=False,
                 checksums=False, retry_policy=None):
        if page_size <= 0:
            raise StorageError("page_size must be positive")
        if checksums and page_size <= _TRAILER.size:
            raise StorageError(
                f"page_size {page_size} cannot hold the "
                f"{_TRAILER.size}-byte checksum trailer")
        self.page_size = page_size
        self.sync_writes = sync_writes
        self.checksums = checksums
        #: Generation stamped into page trailers (the disk index bumps
        #: this at each checkpoint; purely diagnostic for other users).
        self.generation = 0
        self.metrics = IOMetrics()
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy(retries=self.READ_RETRIES,
                             base_backoff=self.RETRY_BACKOFF,
                             max_backoff=0.1, jitter=0.25, seed=0)
        self._path = path
        self._page_count = 0
        self._closed = False
        self._writes_since_sync = False
        if path is None:
            self._pages = {}
            self._fd = None
        else:
            self._pages = None
            self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)

    @property
    def page_count(self):
        """Number of allocated pages."""
        return self._page_count

    @property
    def payload_size(self):
        """Caller-usable bytes per page (page size minus the checksum
        trailer when checksums are on)."""
        if self.checksums:
            return self.page_size - _TRAILER.size
        return self.page_size

    def allocate_page(self):
        """Append a zeroed page; returns its id (no physical I/O yet)."""
        self._check_open()
        pid = self._page_count
        self._page_count += 1
        return pid

    # -- reads ---------------------------------------------------------

    def read_page(self, page_id, verify=True, cancel=None):
        """Physically read one page; returns a ``bytearray``.

        In checksum mode the trailer is verified (``verify=False``
        skips that — for probing possibly-torn metadata slots and for
        fsck's structured scanning). Each attempt is the full
        read-then-verify unit, retried under :attr:`retry_policy`
        (``OSError`` only by default); exhaustion raises
        :class:`~repro.exceptions.RetryExhaustedError` — a
        ``StorageError`` carrying the attempt count and the read site.
        ``cancel`` clips backoff sleeps to the caller's remaining
        deadline and aborts the loop once the token expires.
        """
        self._check_open()
        self._check_page(page_id)
        self.metrics.record_read(page_id)

        def _attempt():
            if _FAILPOINTS.active:
                _FAILPOINTS.fire("pager.read", page=page_id)
            if self._fd is None:
                data = self._pages.get(page_id) or b""
            else:
                data = self._pread_full(page_id)
            buf = bytearray(self.page_size)
            buf[:len(data)] = data
            if verify and self.checksums:
                self.check_page(page_id, buf)
            return buf

        def _on_retry(attempt, exc):
            self.metrics.read_retries += 1

        return self.retry_policy.call(_attempt,
                                      site=f"page {page_id} read",
                                      cancel=cancel, on_retry=_on_retry)

    def _pread_full(self, page_id):
        """Read one page's bytes, completing interior short reads; a
        read at EOF returns what exists (caller zero-fills)."""
        offset = page_id * self.page_size
        parts = []
        got = 0
        while got < self.page_size:
            chunk = os.pread(self._fd, self.page_size - got, offset + got)
            if not chunk:
                break  # EOF: trailing fresh page, zero-filled by caller
            parts.append(chunk)
            got += len(chunk)
        return b"".join(parts)

    # -- writes --------------------------------------------------------

    def write_page(self, page_id, data):
        """Physically write one page (stamping the checksum trailer in
        checksum mode). Loops until every byte lands; zero progress
        raises ``StorageError``."""
        self._check_open()
        self._check_page(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                f"page write of {len(data)} bytes, expected "
                f"{self.page_size}")
        mode = None
        if _FAILPOINTS.active:
            try:
                mode = _FAILPOINTS.fire("pager.write", page=page_id)
            except OSError as exc:
                # Same contract as a real kernel failure below: write
                # errors surface as StorageError.
                raise StorageError(
                    f"page {page_id} write failed: {exc}") from exc
        self.metrics.record_write(page_id, sync=self.sync_writes)
        # A physical write during a traced query is a dirty write-back
        # that query forced (eviction under buffer pressure) — worth
        # attributing. Reads are attributed at the buffer-miss level.
        span = get_tracer().active
        if span is not None:
            span.event("page-write", page=page_id,
                       sync=self.sync_writes)
        if self.checksums:
            out = self._stamp(page_id, data)
        else:
            out = bytes(data)
        if self._fd is None:
            if mode == "torn":
                half = self.page_size // 2
                self._pages[page_id] = (out[:half]
                                        + b"\x00" * (self.page_size - half))
                raise CrashInjected(
                    f"simulated torn write at page {page_id}")
            self._pages[page_id] = out
            return
        offset = page_id * self.page_size
        if mode == "torn":
            os.pwrite(self._fd, out[:self.page_size // 2], offset)
            self._writes_since_sync = True
            raise CrashInjected(f"simulated torn write at page {page_id}")
        try:
            self._pwrite_all(out, offset, simulate_short=(mode == "short"))
        except OSError as exc:
            raise StorageError(
                f"page {page_id} write failed: {exc}") from exc
        self._writes_since_sync = True
        if self.sync_writes:
            self.fsync()

    def _pwrite_all(self, data, offset, simulate_short=False):
        view = memoryview(data)
        total = 0
        while total < len(data):
            chunk = view[total:]
            if simulate_short and total == 0 and len(chunk) > 1:
                # Injected fault: the kernel accepts only half the
                # request — the loop must transparently finish the rest.
                chunk = chunk[:len(chunk) // 2]
            written = os.pwrite(self._fd, chunk, offset + total)
            if written <= 0:
                raise StorageError(
                    f"pwrite made no progress at offset {offset + total} "
                    f"({written} of {len(chunk)} bytes)")
            total += written

    # -- checksums -----------------------------------------------------

    @staticmethod
    def _crc(page_id, payload, generation):
        seed = zlib.crc32(struct.pack("<QI", page_id,
                                      generation & 0xFFFFFFFF))
        return zlib.crc32(payload, seed)

    def _stamp(self, page_id, data):
        trailer_off = self.page_size - _TRAILER.size
        payload = bytes(data[:trailer_off])
        gen = self.generation & 0xFFFFFFFF
        return payload + _TRAILER.pack(self._crc(page_id, payload, gen),
                                       gen)

    def verify_page(self, page_id, buf):
        """True iff ``buf`` (a full page) carries a valid trailer."""
        trailer_off = self.page_size - _TRAILER.size
        stored_crc, stored_gen = _TRAILER.unpack_from(buf, trailer_off)
        payload = bytes(buf[:trailer_off])
        return self._crc(page_id, payload, stored_gen) == stored_crc

    def check_page(self, page_id, buf):
        """Raise :class:`~repro.exceptions.CorruptPageError` unless
        ``buf`` carries a valid trailer; a failure is counted in
        ``checksum_failures``, the ``storage.corruption.pages`` metric
        and a ``corrupt-page`` trace event."""
        if self.verify_page(page_id, buf):
            return
        trailer_off = self.page_size - _TRAILER.size
        _, stored_gen = _TRAILER.unpack_from(buf, trailer_off)
        zeroed = not any(buf)
        self.metrics.checksum_failures += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("storage.corruption.pages").inc()
        span = get_tracer().active
        if span is not None:
            span.event("corrupt-page", page=page_id,
                       generation=None if zeroed else stored_gen)
        where = self._path or "<memory>"
        detail = ("page is all zeroes (never written, or zeroed by a "
                  "torn write)" if zeroed
                  else "stored CRC does not match contents")
        raise CorruptPageError(
            f"{where}: page {page_id}: {detail} "
            f"(trailer generation {stored_gen})",
            page_id=page_id,
            generation=None if zeroed else stored_gen,
            path=self._path)

    # -- durability ----------------------------------------------------

    def fsync(self):
        """Force written pages to stable storage (no-op in memory, or
        when nothing was written since the last sync)."""
        self._check_open()
        if _FAILPOINTS.active:
            _FAILPOINTS.fire("pager.fsync")
        if self._fd is not None and self._writes_since_sync:
            os.fsync(self._fd)
            self._writes_since_sync = False

    def close(self, sync=True):
        """Release the backing file descriptor (idempotent).

        A clean close fsyncs first, so data written without
        ``sync_writes`` is durable once ``close()`` returns.
        ``sync=False`` skips that — the crash-simulation path.
        """
        if self._closed:
            return
        self._closed = True
        if self._fd is not None:
            try:
                if sync and self._writes_since_sync:
                    try:
                        os.fsync(self._fd)
                    except OSError as exc:
                        raise StorageError(
                            f"fsync on close failed: {exc}") from exc
            finally:
                os.close(self._fd)
                self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _check_open(self):
        if self._closed:
            raise StorageError("page file is closed")

    def _check_page(self, page_id):
        if not 0 <= page_id < self._page_count:
            raise StorageError(
                f"page {page_id} out of range 0..{self._page_count - 1}")
