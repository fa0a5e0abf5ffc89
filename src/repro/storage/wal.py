"""Write-ahead log of extend records for the disk-resident index.

:class:`~repro.disk.spine_disk.DiskSpineIndex` appends each extend to a
sidecar log (``<index path>.wal``) *before* mutating any page.  A
checkpoint fsyncs the log and leaves it in place, so it keeps the whole
text from LSN 0: recovery-on-open replays the records past the newest
durable checkpoint, and shard repair rebuilds a corrupt index from it.

Log layout (all little-endian)::

    header   <4sHHq>   magic b"SPWL", version, reserved,
                       base generation: the newest checkpoint that
                       covers the log
    record*  <IIqq>    CRC32, payload length, generation stamp, LSN
             payload   the appended character codes, one byte each

The CRC covers everything after itself (length, stamp, LSN, payload),
so a record is valid iff its frame is complete *and* checksums.

Correctness rules, enforced by :func:`scan_wal` +
:meth:`~repro.disk.spine_disk.DiskSpineIndex.open`:

* the **LSN** is the index length after applying the record; replay
  applies, in order, the records past the checkpoint's length ``n``,
  each continuing exactly at the current length — the first that does
  not is cut with everything after it, never replayed wrong;
* each checkpoint stamps its generation into the header; a log whose
  header names another generation than the recovered one did not
  witness that checkpoint, so it restarts empty;
* a **torn tail** is truncated on open; **damage** inside the
  checkpoint — a CRC-failing frame followed by one that verifies and
  starts at or below ``n`` — is skipped, keeping the records after it.

Fsync policies (the durability/throughput dial benchmarked by
``benchmarks/bench_wal.py``):

==========  =========================================================
policy      guarantee
==========  =========================================================
always      fsync after every append — an acknowledged ``extend`` is
            durable (power-loss safe)
interval    fsync every ``fsync_interval`` appends (and on
            checkpoint/close) — bounded loss window
off         never fsync from the append path — the OS decides; a
            process crash loses nothing, power loss may lose the tail
==========  =========================================================

Failpoint sites (:mod:`repro.storage.failpoints`): ``wal.append``
fires before each frame write (``torn`` lands half the frame then
raises :class:`CrashInjected` — the write offset does not advance, so
a surviving process overwrites the torn bytes on its next append;
``short``, ``oserror``, ``crash``); ``wal.fsync`` fires before each
log fsync.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import namedtuple

from repro.exceptions import StorageError
from repro.obs import get_registry
from repro.storage.failpoints import CrashInjected, get_failpoints

__all__ = [
    "WAL_SUFFIX",
    "FSYNC_POLICIES",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "replay_split",
    "scan_wal",
    "wal_path_for",
]

#: Sidecar suffix: the WAL of ``eco.spine`` is ``eco.spine.wal``.
WAL_SUFFIX = ".wal"

#: Recognised fsync policies, strictest first.
FSYNC_POLICIES = ("always", "interval", "off")

WAL_MAGIC = b"SPWL"
WAL_VERSION = 1

_HEADER = struct.Struct("<4sHHq")
_FRAME = struct.Struct("<IIqq")

_FAILPOINTS = get_failpoints()


def wal_path_for(index_path):
    """The sidecar WAL path of an index file."""
    return os.fspath(index_path) + WAL_SUFFIX


class WalRecord(namedtuple("WalRecord", "offset generation lsn payload")):
    """One scanned log record: the frame's byte offset, the checkpoint
    generation stamped at append time, the LSN (index length after
    applying) and the appended codes, one byte each."""

    __slots__ = ()

    @property
    def start(self):
        """The index length this record continues from."""
        return self.lsn - len(self.payload)


class WalScan:
    """Result of :func:`scan_wal` — also the fsck ``wal`` section."""

    __slots__ = ("path", "exists", "header_ok", "base_generation",
                 "records", "damaged", "valid_bytes", "tail_bytes",
                 "torn_reason")

    def __init__(self, path, exists=False, header_ok=False,
                 base_generation=0, records=(), damaged=(),
                 valid_bytes=0, tail_bytes=0, torn_reason=None):
        self.path = path
        self.exists = exists
        self.header_ok = header_ok
        self.base_generation = base_generation
        self.records = list(records)
        self.damaged = list(damaged)     # (offset, nbytes) skipped
        self.valid_bytes = valid_bytes   # up to the last intact frame
        self.tail_bytes = tail_bytes     # torn/garbage bytes past that
        self.torn_reason = torn_reason

    @property
    def last_lsn(self):
        """LSN of the newest intact record (0 for an empty log)."""
        return self.records[-1].lsn if self.records else 0

    @property
    def start_lsn(self):
        """The LSN the log starts at (``None`` for an empty log); a log
        that starts at 0 holds the index's whole text."""
        return self.records[0].start if self.records else None

    def codes(self, start, stop):
        """The logged codes of LSN range ``[start, stop)``, or ``None``
        when the intact records do not hold all of it without a gap."""
        parts = []
        pos = start
        for record in self.records:
            if pos >= stop:
                break
            if record.lsn <= pos:
                continue
            if record.start > pos:
                return None
            parts.append(record.payload[pos - record.start:
                                        stop - record.start])
            pos = min(record.lsn, stop)
        return b"".join(parts) if pos >= stop else None

    def to_dict(self, checkpoint_n=None):
        """JSON-ready summary (payloads omitted); ``covers_checkpoint``:
        the log holds ``[0, checkpoint_n)`` — a full repair source."""
        return {
            "path": self.path,
            "present": self.exists,
            "header_ok": self.header_ok,
            "base_generation": self.base_generation,
            "records": len(self.records),
            "chars": sum(len(r.payload) for r in self.records),
            "start_lsn": self.start_lsn,
            "last_lsn": self.last_lsn,
            "checkpoint_n": checkpoint_n,
            "covers_checkpoint": (
                None if checkpoint_n is None
                else self.codes(0, checkpoint_n) is not None),
            "damaged": [{"offset": offset, "bytes": nbytes}
                        for offset, nbytes in self.damaged],
            "valid_bytes": self.valid_bytes,
            "tail_bytes": self.tail_bytes,
            "torn_reason": self.torn_reason,
        }


def _frame_at(data, offset):
    """``(record, end, reason)`` of the frame at ``offset``: ``record``
    is ``None`` when the frame fails (``reason`` says how), and ``end``
    is ``None`` when the frame is incomplete."""
    if offset + _FRAME.size > len(data):
        return None, None, "incomplete frame header at end of log"
    crc, length, gen, lsn = _FRAME.unpack_from(data, offset)
    end = offset + _FRAME.size + length
    if end > len(data):
        return None, None, "frame payload extends past end of log"
    if zlib.crc32(data[offset + 4:end]) != crc:
        return None, end, "frame CRC mismatch"
    return WalRecord(offset, gen, lsn, data[offset + _FRAME.size:end]), \
        end, None


def scan_wal(path, checkpoint_n=None):
    """Scan a WAL file without touching it.

    Reads frames sequentially.  The first incomplete or CRC-failing
    frame starts the torn tail — unless it is damage inside the
    checkpoint of length ``checkpoint_n``: its length field leads to a
    frame that verifies and starts at or below ``checkpoint_n``.  Such a
    frame is listed in ``damaged`` and the scan goes on.  A missing file
    scans as ``exists=False`` (nothing to replay), and an unreadable
    header as an empty log with a diagnosis — never an exception, so
    ``fsck`` and recovery share one code path.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return WalScan(path)
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _HEADER.size:
        return WalScan(path, exists=True, tail_bytes=len(data),
                       torn_reason="file shorter than the WAL header")
    magic, version, _reserved, base_gen = _HEADER.unpack_from(data)
    if magic != WAL_MAGIC:
        return WalScan(path, exists=True, tail_bytes=len(data),
                       torn_reason="bad WAL magic")
    if version != WAL_VERSION:
        return WalScan(path, exists=True, tail_bytes=len(data),
                       torn_reason=f"unsupported WAL version {version}")
    records = []
    damaged = []
    offset = _HEADER.size
    valid = offset
    torn = None
    while offset < len(data):
        record, end, reason = _frame_at(data, offset)
        if record is None and end is not None \
                and checkpoint_n is not None:
            successor = _frame_at(data, end)[0]
            if successor is not None and successor.start <= checkpoint_n:
                damaged.append((offset, end - offset))
                offset = end
                continue
        if record is None:
            torn = reason
            break
        records.append(record)
        offset = valid = end
    return WalScan(path, exists=True, header_ok=True,
                   base_generation=base_gen, records=records,
                   damaged=damaged, valid_bytes=valid,
                   tail_bytes=len(data) - valid, torn_reason=torn)


def replay_split(records, checkpoint_n):
    """``(first, cut)``: ``records[:first]`` lie inside a checkpoint of
    length ``checkpoint_n``, ``records[first:cut]`` continue it one
    after the other (replayed), and ``records[cut:]`` are cut."""
    first = 0
    while first < len(records) and records[first].lsn <= checkpoint_n:
        first += 1
    length = checkpoint_n
    cut = first
    while cut < len(records) and records[cut].start == length:
        length = records[cut].lsn
        cut += 1
    return first, cut


class WriteAheadLog:
    """Append-only, CRC32-framed extend log.

    Parameters
    ----------
    path:
        The log file; created (with a fresh header) when absent.
    fsync_policy:
        ``"always"`` / ``"interval"`` / ``"off"`` — see the module
        docstring.
    fsync_interval:
        Appends between fsyncs under the ``interval`` policy.
    base_generation:
        The checkpoint generation the log must have witnessed: stamped
        into a fresh header (0 when ``None``), and an existing log whose
        header names another one restarts empty (it cannot be trusted
        to match the pages).  ``None`` accepts any.
    fresh:
        Start from an empty log even when a file exists — the path a
        brand-new index takes so it cannot inherit a stale sidecar
        from a previous index built at the same path.
    checkpoint_n:
        Length of the checkpoint the log continues; damage at or below
        it is skipped instead of cut (see :func:`scan_wal`).

    Opening an existing log scans it and **physically truncates** a
    torn tail, so the object always appends after the last valid
    frame.  The scanned records are left in :attr:`recovered` for the
    owner to replay.
    """

    def __init__(self, path, fsync_policy="always", fsync_interval=32,
                 base_generation=None, fresh=False, checkpoint_n=None):
        if fsync_policy not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown WAL fsync policy {fsync_policy!r}; expected "
                f"one of {FSYNC_POLICIES}")
        if fsync_interval < 1:
            raise StorageError("fsync_interval must be >= 1")
        self.path = os.fspath(path)
        self.fsync_policy = fsync_policy
        self.fsync_interval = fsync_interval
        self._appends_since_sync = 0
        self._closed = False
        scan = (WalScan(self.path) if fresh
                else scan_wal(self.path, checkpoint_n))
        registry = get_registry()
        if scan.exists and scan.header_ok and base_generation in (
                None, scan.base_generation):
            self._fh = open(self.path, "r+b")
            if scan.tail_bytes:
                # Clean truncation of the torn tail: the next append
                # must start at a frame boundary or the whole log
                # after the tear would be unreadable.
                self._fh.truncate(scan.valid_bytes)
                self._fh.flush()
                os.fsync(self._fh.fileno())
                if registry.enabled:
                    registry.counter("wal.torn_tail_bytes").inc(
                        scan.tail_bytes)
            self.base_generation = scan.base_generation
            self._offset = scan.valid_bytes
            self.records = len(scan.records)
            self.last_lsn = scan.last_lsn
            self.recovered = scan.records
        else:
            # Absent, unreadable from the first byte (a crash while a
            # fresh log wrote its header), or blind to the checkpoint:
            # the only safe content is an empty log.
            self._fh = open(self.path, "w+b")
            self._write_header(base_generation or 0)
            self._offset = _HEADER.size
            self.records = 0
            self.last_lsn = 0
            self.recovered = []
            if scan.exists and registry.enabled:
                registry.counter("wal.torn_tail_bytes").inc(
                    scan.tail_bytes)

    # -- internals -----------------------------------------------------

    def _write_header(self, base_generation):
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0,
                                    base_generation))
        self._fh.flush()
        self.base_generation = base_generation

    def _fsync(self):
        if _FAILPOINTS.active:
            _FAILPOINTS.fire("wal.fsync", path=self.path)
        os.fsync(self._fh.fileno())
        self._appends_since_sync = 0
        registry = get_registry()
        if registry.enabled:
            registry.counter("wal.fsyncs").inc()

    # -- the write path ------------------------------------------------

    def append(self, payload, generation, lsn):
        """Durably frame one extend record.

        ``payload`` is the appended character codes as bytes, ``lsn``
        the index length after applying them.  The write offset only
        advances once the whole frame landed: a torn write (injected
        or real) leaves the offset on the last valid frame, so a
        surviving process overwrites the damage with its next append
        while a crashed one truncates it on reopen.
        """
        if self._closed:
            raise StorageError(f"{self.path}: WAL is closed")
        payload = bytes(payload)
        body = struct.pack("<Iqq", len(payload), generation, lsn)
        frame = _FRAME.pack(zlib.crc32(body + payload), len(payload),
                            generation, lsn) + payload
        mode = None
        if _FAILPOINTS.active:
            mode = _FAILPOINTS.fire("wal.append", path=self.path,
                                    lsn=lsn)
        self._fh.seek(self._offset)
        if mode == "torn":
            # Half the frame lands, then the process "dies".  The
            # offset stays put: to a reopened process the half-frame
            # is a CRC-failing tail (truncated), to this process the
            # next append overwrites it.
            self._fh.write(frame[:max(1, len(frame) // 2)])
            self._fh.flush()
            raise CrashInjected(
                f"simulated torn WAL append at lsn {lsn}")
        if mode == "short":
            # First write truncated; the loop below completes it —
            # the append must succeed transparently.
            cut = max(1, len(frame) // 2)
            self._fh.write(frame[:cut])
            self._fh.write(frame[cut:])
        else:
            self._fh.write(frame)
        self._fh.flush()
        self._offset += len(frame)
        self.records += 1
        self.last_lsn = lsn
        self._appends_since_sync += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("wal.appends").inc()
            registry.counter("wal.bytes").inc(len(frame))
        if self.fsync_policy == "always":
            self._fsync()
        elif (self.fsync_policy == "interval"
              and self._appends_since_sync >= self.fsync_interval):
            self._fsync()

    def sync(self):
        """Force the log to stable storage (any policy)."""
        if not self._closed:
            self._fsync()

    def stamp(self, generation):
        """Rewrite the header's base generation in place (durable with
        the next fsync): checkpoint ``generation`` covers the log."""
        if self._closed:
            raise StorageError(f"{self.path}: WAL is closed")
        self._write_header(generation)

    @property
    def position(self):
        """``(offset, records, last_lsn)`` of the log end — a point
        :meth:`rewind` can return to."""
        return self._offset, self.records, self.last_lsn

    def rewind(self, offset, records, last_lsn):
        """Cut the log at ``offset`` (a frame boundary from a scan or a
        :attr:`position`), keeping ``records`` intact frames; durable
        with the next fsync.  Recovery cuts valid-looking records that
        must never be replayed (an LSN discontinuity) this way, and
        ``abort()`` the records past the last checkpoint."""
        if self._closed:
            raise StorageError(f"{self.path}: WAL is closed")
        if not _HEADER.size <= offset <= self._offset:
            raise StorageError(
                f"{self.path}: rewind offset {offset} outside the log")
        self._fh.truncate(offset)
        self._offset = offset
        self.records = records
        self.last_lsn = last_lsn

    # -- lifecycle -----------------------------------------------------

    def close(self, sync=True):
        """Release the descriptor; ``sync=False`` skips the final
        fsync (the simulated-crash path keeps the file as-is)."""
        if self._closed:
            return
        if sync:
            try:
                self._fsync()
            finally:
                self._closed = True
                self._fh.close()
        else:
            self._closed = True
            self._fh.close()

    @property
    def closed(self):
        return self._closed

    def stats(self):
        """JSON-ready live counters for health/CLI reporting."""
        return {
            "path": self.path,
            "fsync_policy": self.fsync_policy,
            "fsync_interval": self.fsync_interval,
            "base_generation": self.base_generation,
            "records": self.records,
            "last_lsn": self.last_lsn,
            "bytes": self._offset,
            "pending_fsync": self._appends_since_sync,
        }

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return (f"WriteAheadLog({self.path!r}, {state}, "
                f"records={self.records}, policy={self.fsync_policy})")
