"""Fixed-size page storage over a real file (or memory).

``PageFile`` is deliberately boring: numbered 4-KiB pages, explicit
``read_page``/``write_page``, physical-I/O counters, optional
synchronous-write mode mirroring the paper's ``O_SYNC`` experiments.
The buffer pool (:mod:`repro.storage.buffer`) sits on top.

Durability hardening (see ``docs/durability.md``):

* a physical write is one ``os.pwritev`` of the caller's payload (a
  ``memoryview``, not a copy) and the 8-byte trailer; a short write is
  completed by the same call on the rest, zero progress raises
  ``StorageError`` (before, a short write was a silent torn page);
* a physical read is one ``os.preadv`` straight into the zeroed frame
  it returns; an interior short read is completed, bytes past EOF stay
  zero; reads hitting a transient ``OSError`` are retried under a
  :class:`~repro.resilience.RetryPolicy` (bounded attempts,
  exponential backoff with a jitter cap — ``retry_policy=`` swaps the
  default, e.g. to also retry ``CorruptPageError`` on media where a
  re-read may return different bytes); exhaustion raises
  :class:`~repro.exceptions.RetryExhaustedError` carrying the attempt
  count;
* ``checksums=True`` reserves the last 8 bytes of every page for a
  trailer — CRC32 over (page id, generation, payload) plus the
  checkpoint generation that wrote the page — stamped on every write
  and verified on every read (the CRC runs over a ``memoryview`` of the
  payload, so no page bytes are copied); a mismatch raises
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
from repro.obs.trace import active_span
from repro.resilience.retry import RetryPolicy
from repro.storage.failpoints import CrashInjected, get_failpoints
from repro.storage.metrics import IOMetrics

#: Per-page trailer in checksum mode: CRC32, writing generation.
_TRAILER = struct.Struct("<II")
#: CRC seed input: the page id and the writing generation.
_SEED = struct.Struct("<QI")

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
        return self.retry_policy.call(
            self._read_attempt, page_id, verify, site="page {} read",
            cancel=cancel, on_retry=self._count_retry)

    def _read_attempt(self, page_id, verify):
        """One read-then-verify attempt: a single ``preadv`` straight
        into a fresh zeroed frame, completing an interior short read;
        bytes past EOF stay zero (a trailing fresh page)."""
        if _FAILPOINTS.active:
            _FAILPOINTS.fire("pager.read", page=page_id)
        size = self.page_size
        if self._fd is None:
            data = self._pages.get(page_id)
            buf = bytearray(size) if data is None else bytearray(data)
        else:
            buf = bytearray(size)
            offset = page_id * size
            got = os.preadv(self._fd, (buf,), offset)
            while 0 < got < size:
                more = os.preadv(self._fd, (memoryview(buf)[got:],),
                                 offset + got)
                if not more:
                    break  # EOF mid-page: the tail stays zero
                got += more
        if verify and self.checksums and not self.verify_page(page_id, buf):
            self._raise_corrupt(page_id, buf)
        return buf

    def _count_retry(self, attempt, exc):
        self.metrics.read_retries += 1

    # -- writes --------------------------------------------------------

    def write_page(self, page_id, data):
        """Physically write one page (stamping the checksum trailer in
        checksum mode) with one ``pwritev`` of the payload and the
        trailer, straight from ``data``. Loops until every byte lands;
        zero progress raises ``StorageError``."""
        self._check_open()
        self._check_page(page_id)
        size = self.page_size
        if len(data) != size:
            raise StorageError(
                f"page write of {len(data)} bytes, expected {size}")
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
        span = active_span()
        if span is not None:
            span.event("page-write", page=page_id,
                       sync=self.sync_writes)
        view = memoryview(data)
        if self.checksums:
            payload = view[:size - _TRAILER.size]
            gen = self.generation & 0xFFFFFFFF
            parts = [payload, _TRAILER.pack(
                zlib.crc32(payload, zlib.crc32(_SEED.pack(page_id, gen))),
                gen)]
        else:
            parts = [view]
        if mode == "torn":
            # Injected fault: half the page lands, then the process
            # "dies" (the rest of a memory page reads as zero).
            torn = b"".join(parts)[:size // 2]
            if self._fd is None:
                self._pages[page_id] = torn + bytes(size - len(torn))
            else:
                os.pwrite(self._fd, torn, page_id * size)
                self._writes_since_sync = True
            raise CrashInjected(f"simulated torn write at page {page_id}")
        if self._fd is None:
            self._pages[page_id] = b"".join(parts)
            return
        offset = page_id * size
        try:
            if mode == "short":
                # Injected fault: the kernel accepts only half the
                # request — the loop must transparently finish the rest.
                written = os.pwritev(self._fd, [parts[0][:size // 2]],
                                     offset)
            else:
                written = os.pwritev(self._fd, parts, offset)
            if written != size:
                self._pwritev_rest(parts, offset, written)
        except OSError as exc:
            raise StorageError(
                f"page {page_id} write failed: {exc}") from exc
        self._writes_since_sync = True
        if self.sync_writes:
            self.fsync()

    def _pwritev_rest(self, parts, offset, written):
        """Complete a short ``pwritev`` of ``parts`` (a list, consumed)
        at ``offset`` that has landed ``written`` bytes so far."""
        while True:
            if written <= 0:
                raise StorageError(
                    f"pwritev made no progress at offset {offset} "
                    f"({written} of {sum(map(len, parts))} bytes)")
            offset += written
            while parts and written >= len(parts[0]):
                written -= len(parts.pop(0))
            if not parts:
                return
            parts[0] = parts[0][written:]
            written = os.pwritev(self._fd, parts, offset)

    # -- checksums -----------------------------------------------------

    def verify_page(self, page_id, buf):
        """True iff ``buf`` (a full page) carries a valid trailer."""
        trailer_off = self.page_size - _TRAILER.size
        stored_crc, stored_gen = _TRAILER.unpack_from(buf, trailer_off)
        seed = zlib.crc32(_SEED.pack(page_id, stored_gen))
        return zlib.crc32(memoryview(buf)[:trailer_off], seed) == stored_crc

    def check_page(self, page_id, buf):
        """Raise :class:`~repro.exceptions.CorruptPageError` unless
        ``buf`` carries a valid trailer; a failure is counted in
        ``checksum_failures``, the ``storage.corruption.pages`` metric
        and a ``corrupt-page`` trace event."""
        if not self.verify_page(page_id, buf):
            self._raise_corrupt(page_id, buf)

    def _raise_corrupt(self, page_id, buf):
        trailer_off = self.page_size - _TRAILER.size
        _, stored_gen = _TRAILER.unpack_from(buf, trailer_off)
        zeroed = not any(buf)
        self.metrics.checksum_failures += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("storage.corruption.pages").inc()
        span = active_span()
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
