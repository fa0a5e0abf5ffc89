"""Disk-resident SPINE index (Section 5 layout, Section 6.2 evaluation).

Every structural access — link reads while walking the chain, rib-table
probes, extrib chains, Link Table appends — goes through a bounded
:class:`~repro.storage.buffer.BufferPool` over struct-packed page
records, so the I/O counters reflect exactly what a disk-resident
implementation does. The regions mirror Figure 5:

=========  =====================  ======================================
Region     Record                 Meaning
=========  =====================  ======================================
CL         ``<B``                 vertebra character labels, packed
                                  densely (the paper uses 2 bits/char;
                                  one byte keeps the region equally tiny
                                  and cache-hot)
LT         ``<iH`` (6 bytes)      the paper's exact entry: a 4-byte
                                  word holding the link destination (no
                                  ribs) or the RT pointer (rib-bearing,
                                  negative), plus a 2-byte LEL
RT1..RTk   ``<(1+4k)i``           one row per node with fanout ``k``:
                                  the displaced link destination, then
                                  per rib a (code, dest, PT, chain head)
                                  slot — all of a node's ribs in one
                                  row, one page touch per probe
EXT        ``<3i``                extrib element: dest, PT, next
=========  =====================  ======================================

Nodes migrate to the next RT class when they gain a rib, exactly as the
paper describes ("movement of nodes across the RTs ... impact is
negligible"); vacated rows go to a per-class free list. Record widths
are implementation-convenient int32s; the paper-width byte model lives
in :meth:`repro.core.packed.PackedSpineIndex.measured_bytes` — here the
interesting output is page traffic.

The occurrence scan (Section 4) is the engine's window loop
(:func:`repro.core.search.link_scan`); this layer decodes its
page-aligned windows (:meth:`DiskSpineIndex.link_candidates`), so the
sweep stays one sequential pass that looks each LT page up once.
"""

from __future__ import annotations

import os
import struct
import time
import zlib

import numpy as np

from repro.alphabet import Alphabet, dna_alphabet
from repro.core import search
from repro.core.verbs import LayerVerbs
from repro.exceptions import ConstructionError, SearchError, StorageError
from repro.obs import get_registry, record_io_snapshot
from repro.storage.buffer import (
    BufferPool, ClockPolicy, LRUPolicy, PinTopPolicy)
from repro.storage.fsck import _walk_blob
from repro.storage.pager import PageFile
from repro.storage.wal import (WriteAheadLog, replay_split,
                                wal_path_for)

_CL = struct.Struct("<B")
_LT = struct.Struct("<iH")
#: ``_LT`` as a NumPy record, for decoding whole page slices.
_LT_DTYPE = np.dtype([("ref", "<i4"), ("lel", "<u2")])
_EXT = struct.Struct("<3i")
_SLOT_INTS = 4  # code, dest, pt, chain_head

#: Flag bit of the version-2 metadata: alphabet folds case.
_META_CASE_INSENSITIVE = 1

#: Version-1/2 metadata header: magic, version, blob length.
_META_LEGACY = struct.Struct("<4sHq")
#: Version-3 checkpoint header: magic, version, flags (reserved), blob
#: length, generation, CRC32 of the whole metadata blob.
_META_V3 = struct.Struct("<4sHHqqI")

_PTR_CLASS_SHIFT = 26
_PTR_ROW_MASK = (1 << _PTR_CLASS_SHIFT) - 1

class _PageLedger:
    """Copy-on-write page bookkeeping behind crash-safe checkpoints.

    Pages referenced by the last durable checkpoint (``committed``) are
    never overwritten in place: the first mutation after a checkpoint
    *shadows* the page — the record lands on a fresh page id and the
    old page is queued on ``pending_free``, reclaimable once the *next*
    checkpoint commits.  Whatever the crash point, the page images the
    last durable generation's metadata references are therefore still
    byte-identical on disk, and recovery-on-open succeeds.

    Before the first checkpoint ``committed`` is empty, so the
    experiment workloads (build, query, never persist) pay nothing.
    """

    __slots__ = ("pagefile", "pool", "committed", "free_pages",
                 "pending_free")

    def __init__(self, pagefile, pool):
        self.pagefile = pagefile
        self.pool = pool
        self.committed = set()
        self.free_pages = []
        self.pending_free = []

    def alloc(self):
        """A writable data page: reuse a reclaimed one or append."""
        if self.free_pages:
            return self.free_pages.pop()
        return self.pagefile.allocate_page()

    def shadow(self, page_id):
        """Copy a committed page to a fresh id; returns the new id.

        The old page's frame is dropped from the pool (its bytes were
        copied) so a later reuse of that id cannot observe the stale
        frame, and the id itself is queued for reclamation at the next
        commit.
        """
        new_id = self.alloc()
        old_frame = self.pool.get(page_id)
        new_frame = self.pool.get(new_id, load=False)
        new_frame[:] = old_frame
        self.pool.mark_dirty(new_id)
        self.pool.discard(page_id)
        self.committed.discard(page_id)
        self.pending_free.append(page_id)
        return new_id

    def commit(self, live_pages):
        """The checkpoint that referenced ``live_pages`` is durable:
        protect them, release everything shadowed out this epoch."""
        self.committed = set(live_pages)
        self.free_pages.extend(self.pending_free)
        self.pending_free = []


class _Region:
    """One record region spread over pages of the shared file.

    :meth:`read`, :meth:`byte` and :meth:`write` locate their page
    inline and, on a single-threaded pool, take the pool's latch-free
    hit path. A thread-safe pool keeps the full path: reads pin the
    frame while it is decoded, and writes go through :meth:`_writable`.
    """

    __slots__ = ("pagefile", "pool", "record", "size", "per_page",
                 "pages", "count", "ledger")

    def __init__(self, pagefile, pool, record, ledger=None):
        self.pagefile = pagefile
        self.pool = pool
        self.record = record
        self.size = record.size
        self.ledger = ledger
        # Records pack into the page's caller-usable payload (the pager
        # reserves a checksum trailer in v3 files).
        self.per_page = pagefile.payload_size // record.size
        if self.per_page < 1:
            # Records never span pages; a zero capacity would send
            # ensure() into an unbounded allocation loop.
            raise StorageError(
                f"page payload {pagefile.payload_size} cannot hold a "
                f"{record.size}-byte record; use larger pages")
        self.pages = []
        self.count = 0

    def _alloc_page(self):
        if self.ledger is not None:
            return self.ledger.alloc()
        return self.pagefile.allocate_page()

    def ensure(self, index):
        """Allocate pages so record ``index`` exists; returns True when a
        fresh page was allocated for it."""
        allocated = False
        while index >= len(self.pages) * self.per_page:
            self.pages.append(self._alloc_page())
            allocated = True
        if index >= self.count:
            self.count = index + 1
        return allocated

    def read(self, index):
        """Unpack record ``index`` through the buffer pool.

        Under a thread-safe pool the frame is pinned for the duration
        of the unpack, so a parallel reader's fault cannot evict it
        mid-decode; the single-threaded path stays pin-free.
        """
        per_page = self.per_page
        page_id = self.pages[index // per_page]
        offset = index % per_page * self.size
        pool = self.pool
        if not pool.thread_safe:
            return self.record.unpack_from(pool.get(page_id), offset)
        with pool.pinned(page_id) as frame:
            return self.record.unpack_from(frame, offset)

    def byte(self, index):
        """Record ``index`` of a one-byte region as an int (no unpack)."""
        per_page = self.per_page
        page_id = self.pages[index // per_page]
        pool = self.pool
        if not pool.thread_safe:
            return pool.get(page_id)[index % per_page]
        with pool.pinned(page_id) as frame:
            return frame[index % per_page]

    def page_slices(self, start, stop):
        """Yield ``(first, chunk)`` covering records ``start <= index <
        stop``, one page at a time: ``chunk`` is a copy of the packed
        records ``first, first + 1, ...`` of one page.

        Each page is looked up once through the pool (so faults,
        checksum checks, retries and trace attribution stay per page),
        and its covered slice is copied out under a pin when the pool is
        thread-safe. Records never span pages, so the consumer may touch
        other pages before asking for the next slice.
        """
        per_page = self.per_page
        size = self.size
        pool = self.pool
        pages = self.pages
        index = start
        while index < stop:
            page_no, slot = divmod(index, per_page)
            end = min(stop, (page_no + 1) * per_page)
            lo = slot * size
            hi = lo + (end - index) * size
            page_id = pages[page_no]
            if pool.thread_safe:
                with pool.pinned(page_id) as frame:
                    chunk = frame[lo:hi]
            else:
                chunk = pool.get(page_id)[lo:hi]
            yield index, chunk
            index = end

    def write(self, index, *values):
        """Pack ``values`` into record ``index`` (allocating pages).

        A page referenced by the last durable checkpoint is shadowed —
        copied to a fresh page id — before the mutation, so a crash can
        always roll back to that checkpoint (see :class:`_PageLedger`).
        On a single-threaded pool, a page that exists and is not
        committed is written in place without the allocation and
        shadowing steps. Returns True when a fresh page was allocated
        for the record.
        """
        per_page = self.per_page
        page_no = index // per_page
        pages = self.pages
        ledger = self.ledger
        pool = self.pool
        if (not pool.thread_safe and page_no < len(pages)
                and (ledger is None
                     or pages[page_no] not in ledger.committed)):
            if index >= self.count:
                self.count = index + 1
            page_id = pages[page_no]
            self.record.pack_into(pool.get(page_id),
                                  index % per_page * self.size, *values)
            pool.mark_dirty(page_id)
            return False
        page_id, frame, slot, fresh = self._writable(index)
        self.record.pack_into(frame, slot * self.size, *values)
        pool.mark_dirty(page_id)
        return fresh

    def write_packed(self, start, raw):
        """Store the already-packed records ``raw`` at ``start``,
        ``start + 1``, ... with one pool lookup per page slice (same
        copy-on-write shadowing as :meth:`write`)."""
        size = self.size
        per_page = self.per_page
        stop = start + len(raw) // size
        index = start
        pos = 0
        while index < stop:
            page_id, frame, slot, _ = self._writable(index)
            take = min(stop - index, per_page - slot)
            lo = slot * size
            frame[lo:lo + take * size] = raw[pos:pos + take * size]
            self.pool.mark_dirty(page_id)
            index += take
            pos += take * size
        if stop > self.count:
            self.count = stop

    def _writable(self, index):
        """``(page_id, frame, slot, fresh)`` of record ``index``,
        allocating its page (``fresh``) or shadowing a committed one
        first."""
        fresh = self.ensure(index)
        page_no, slot = divmod(index, self.per_page)
        page_id = self.pages[page_no]
        ledger = self.ledger
        if (not fresh and ledger is not None
                and page_id in ledger.committed):
            page_id = ledger.shadow(page_id)
            self.pages[page_no] = page_id
            return page_id, self.pool.get(page_id), slot, False
        # A freshly allocated page has no on-disk contents to load.
        return page_id, self.pool.get(page_id, load=not fresh), slot, fresh


class DiskSpineIndex(LayerVerbs):
    """Online, page-resident SPINE over a single string.

    Parameters
    ----------
    alphabet:
        Coding alphabet (required up front — the index is built online).
    path:
        Backing file; ``None`` keeps pages in memory with identical I/O
        accounting.
    buffer_pages:
        Buffer pool capacity in pages (the experiment knob).
    policy:
        ``"lru"`` (default), ``"clock"``, or ``"pintop"`` (the paper's
        retain-the-top-of-the-Link-Table strategy).
    sync_writes:
        Count (and, with a real file, force) synchronous writes — the
        paper's ``O_SYNC`` configuration.
    pintop_fraction:
        With ``policy="pintop"``: fraction of the buffer reserved for
        the top of the LT region (plus the tiny CL region).
    wal_fsync:
        Write-ahead-log fsync policy for extend records —
        ``"always"`` (default: an acknowledged extend survives power
        loss), ``"interval"`` (fsync every ``wal_fsync_interval``
        appends), ``"off"`` (log without fsync), or ``None`` to
        disable the WAL entirely.  Only persistent (``path`` given)
        version-3 indexes keep a WAL; legacy files and in-memory
        indexes ignore this.
    wal_fsync_interval:
        Appends between fsyncs under the ``interval`` policy.
    """

    #: Magic bytes of the metadata page (page 0) of a persisted index.
    META_MAGIC = b"SPDK"
    #: Version 2 added the alphabet identity (name, case folding) to
    #: the checkpoint metadata. Version 3 is the crash-safe format:
    #: generational A/B metadata slots on pages 0 and 1, a CRC over the
    #: whole metadata blob, per-page checksum trailers, and
    #: copy-on-write protection of checkpointed pages. Version-1 and
    #: version-2 files still open (and keep checkpointing in their own
    #: layout — the page geometry of a file never changes after
    #: creation).
    META_VERSION = 3
    #: Prefix of this layer's metric and span names.
    NAME_PREFIX = "disk."

    def __init__(self, alphabet=None, path=None, page_size=4096,
                 buffer_pages=64, policy="lru", sync_writes=False,
                 pintop_fraction=0.5, wal_fsync="always",
                 wal_fsync_interval=32, _defer_init=False,
                 _format=None):
        if alphabet is None:
            # Canonical case-insensitive factory, matching SpineIndex's
            # default so both accept lowercase input out of the box.
            alphabet = dna_alphabet()
        self.alphabet = alphabet
        self._asize = alphabet.total_size
        fmt = _format if _format is not None else type(self).META_VERSION
        self._meta_format = fmt
        self.pagefile = PageFile(path=path, page_size=page_size,
                                 sync_writes=sync_writes,
                                 checksums=(fmt >= 3))
        self._protected = set()
        if policy == "lru":
            pol = LRUPolicy()
        elif policy == "clock":
            pol = ClockPolicy()
        elif policy == "pintop":
            pol = PinTopPolicy(self._protected)
        else:
            raise ConstructionError(f"unknown buffer policy {policy!r}")
        self.policy_name = policy
        self.pool = BufferPool(self.pagefile, buffer_pages, pol)
        self._pintop_pages = max(1, int(buffer_pages * pintop_fraction))
        ledger = _PageLedger(self.pagefile, self.pool) if fmt >= 3 else None
        self._ledger = ledger
        self._cl = _Region(self.pagefile, self.pool, _CL, ledger)
        self._lt = _Region(self.pagefile, self.pool, _LT, ledger)
        max_fanout = max(1, self._asize - 1)
        self._rt = {
            k: _Region(self.pagefile, self.pool,
                       struct.Struct(f"<{1 + _SLOT_INTS * k}i"), ledger)
            for k in range(1, max_fanout + 1)
        }
        self._rt_free = {k: [] for k in self._rt}
        self._ext = _Region(self.pagefile, self.pool, _EXT, ledger)
        self._n = 0
        #: The tail's link ``(dest, LEL)``; ``None`` until first read
        #: from ``LT[n]`` (after :meth:`open`).
        self._tail = None
        self._rib_count = 0
        #: Last durable checkpoint generation (0 = never checkpointed).
        self._generation = 0
        #: Continuation pages of each metadata slot (v3; grown on
        #: demand, reused checkpoint after checkpoint).
        self._meta_chains = {0: [], 1: []}
        self._path = path
        #: Write-ahead log of extend records (None when disabled).
        self._wal = None
        #: Log position where the last checkpoint this process
        #: committed (or recovered) ends — where :meth:`abort` rewinds.
        self._wal_mark = None
        if _defer_init:
            return
        if path is not None and fmt >= 3 and wal_fsync is not None:
            # A brand-new index starts from an empty log even when a
            # stale sidecar exists at the same path.
            self._wal = WriteAheadLog(
                wal_path_for(path), fsync_policy=wal_fsync,
                fsync_interval=wal_fsync_interval, fresh=True)
            self._wal_mark = self._wal.position
        if fmt >= 3:
            # Pages 0 and 1 are the two generational metadata slots:
            # generation g commits to slot g % 2, so a torn commit can
            # only damage the slot being written, never the fallback.
            self._meta_page = self.pagefile.allocate_page()
            self.pagefile.allocate_page()
        else:
            # Page 0 is reserved for the checkpoint metadata.
            self._meta_page = self.pagefile.allocate_page()
        # The root's entries: sentinel code, no link, no ribs.
        self._cl.write(0, 255)
        self._lt_write(0, 0, 0)

    # ------------------------------------------------------------------
    # persistence (checkpoint to page 0 + continuation chain)
    # ------------------------------------------------------------------

    def _regions(self):
        named = [("cl", self._cl), ("lt", self._lt), ("ext", self._ext)]
        named.extend((f"rt{k}", region)
                     for k, region in sorted(self._rt.items()))
        return named

    def _meta_blob(self):
        symbols = self.alphabet.symbols.encode("utf-8")
        sep = self.alphabet.separator_code
        flags = (_META_CASE_INSENSITIVE
                 if self.alphabet.case_insensitive else 0)
        name = self.alphabet.name.encode("utf-8")
        parts = [struct.pack("<qqhH", self._n, self._rib_count,
                             -1 if sep is None else sep, len(symbols)),
                 symbols,
                 struct.pack("<BH", flags, len(name)),
                 name]
        for _, region in self._regions():
            parts.append(struct.pack("<qi", region.count,
                                     len(region.pages)))
            parts.append(struct.pack(f"<{len(region.pages)}i",
                                     *region.pages))
        for k in sorted(self._rt_free):
            free = self._rt_free[k]
            parts.append(struct.pack("<i", len(free)))
            parts.append(struct.pack(f"<{len(free)}i", *free))
        return b"".join(parts)

    def checkpoint(self):
        """Persist the in-memory directories so :meth:`open` can reload
        the index later.

        On a version-3 file this is the atomic generational protocol
        (see ``docs/durability.md``): flush the data pages, ``fsync``,
        write the metadata chain and last the metadata head — stamped
        with the next generation and a CRC over the whole blob — to the
        alternating A/B slot, ``fsync`` again. A crash at any byte
        boundary leaves the previous generation intact and discoverable.
        Legacy (v1/v2) files keep their historical in-place layout.
        """
        with self.pool.rwlock.write_locked():
            self._checkpoint()

    @property
    def generation(self):
        """Last durable checkpoint generation (0 before the first)."""
        return self._generation

    @property
    def wal(self):
        """The extend write-ahead log (``None`` when disabled)."""
        return self._wal

    def abort(self):
        """Roll back to the last checkpoint: release the file without
        flushing and *rewind* the write-ahead log to where the last
        checkpoint this process committed (or recovered) ends, so a
        reopen serves exactly that generation.  Also the cleanup path
        for a failed :meth:`open`.  To simulate a crash that keeps the
        log (reopen-and-replay), use :meth:`crash`."""
        self.pagefile.close(sync=False)
        if self._wal is not None and not self._wal.closed:
            self._wal.rewind(*self._wal_mark)
            self._wal.close(sync=False)
        self._wal = None

    def crash(self):
        """Simulated ``kill -9``: drop every descriptor without
        flushing, fsyncing or discarding anything — the on-disk bytes
        (last checkpoint + WAL tail) are exactly what a restarted
        process would find, so tests reopen and verify replay."""
        self.pagefile.close(sync=False)
        if self._wal is not None:
            self._wal.close(sync=False)

    def _live_pages(self):
        live = set()
        for _, region in self._regions():
            live.update(region.pages)
        return live

    def _checkpoint(self):
        if self._meta_format < 3:
            return self._checkpoint_legacy()
        gen = self._generation + 1
        self.pagefile.generation = gen
        self.pool.flush()
        if self._wal is not None:
            # The log keeps the text this checkpoint covers: make it
            # durable before the commit point, then leave it in place.
            self._wal.sync()
        self.pagefile.fsync()          # barrier 1: data pages durable
        blob = self._meta_blob()
        blob_crc = zlib.crc32(blob)
        payload = self.pagefile.payload_size
        per_page = payload - 4         # 4-byte next-page pointer
        first_payload = per_page - _META_V3.size
        chunks = [blob[:first_payload]]
        rest = blob[first_payload:]
        while rest:
            chunks.append(rest[:per_page])
            rest = rest[per_page:]
        slot = gen % 2
        chain = self._meta_chains[slot]
        while len(chain) < len(chunks) - 1:
            # Chain pages are append-allocated, never taken from the
            # reclaimed-page pool: a reclaimed page may still be
            # referenced by the previous (fallback) generation, and
            # overwriting it here would destroy the very checkpoint a
            # crash mid-commit must recover to.
            chain.append(self.pagefile.allocate_page())
        page_ids = [slot] + chain[:len(chunks) - 1]
        frames = []
        for i, chunk in enumerate(chunks):
            frame = bytearray(self.pagefile.page_size)
            offset = 0
            if i == 0:
                _META_V3.pack_into(frame, 0, self.META_MAGIC, 3, 0,
                                   len(blob), gen, blob_crc)
                offset = _META_V3.size
            frame[offset:offset + len(chunk)] = chunk
            nxt = page_ids[i + 1] if i + 1 < len(chunks) else -1
            struct.pack_into("<i", frame, payload - 4, nxt)
            frames.append(frame)
        # Continuation pages first, the head slot last: the head is the
        # commit record — until it is durable, recovery resolves to the
        # previous generation (whose pages copy-on-write preserved).
        for i in range(len(frames) - 1, -1, -1):
            self.pagefile.write_page(page_ids[i], frames[i])
        self.pagefile.fsync()          # barrier 2: the commit point
        self._generation = gen
        if self._ledger is not None:
            self._ledger.commit(self._live_pages())
        if self._wal is not None:
            self._wal.stamp(gen)
            self._wal_mark = self._wal.position

    def _checkpoint_legacy(self):
        """The version-1/2 in-place layout (page 0 overwritten, not
        crash-atomic) — kept so pre-v3 files remain writable."""
        blob = self._meta_blob()
        page_size = self.pagefile.page_size
        payload_per_page = page_size - 4  # 4-byte next-page pointer
        first_payload = payload_per_page - _META_LEGACY.size
        chunks = [blob[:first_payload]]
        rest = blob[first_payload:]
        while rest:
            chunks.append(rest[:payload_per_page])
            rest = rest[payload_per_page:]
        page_ids = [self._meta_page]
        while len(page_ids) < len(chunks):
            page_ids.append(self.pagefile.allocate_page())
        for i, chunk in enumerate(chunks):
            frame = bytearray(page_size)
            offset = 0
            if i == 0:
                _META_LEGACY.pack_into(frame, 0, self.META_MAGIC,
                                       min(self._meta_format, 2),
                                       len(blob))
                offset = _META_LEGACY.size
            frame[offset:offset + len(chunk)] = chunk
            nxt = page_ids[i + 1] if i + 1 < len(chunks) else -1
            struct.pack_into("<i", frame, page_size - 4, nxt)
            self.pagefile.write_page(page_ids[i], frame)
        self.pool.flush()
        self.pagefile.fsync()

    @classmethod
    def open(cls, path, alphabet=None, page_size=4096, buffer_pages=64,
             policy="lru", sync_writes=False, pintop_fraction=0.5,
             wal_fsync="always", wal_fsync_interval=32):
        """Reopen an index persisted with :meth:`checkpoint`.

        ``alphabet`` may be omitted; the full identity (symbols,
        separator, name, case folding) is restored from the metadata.
        When it *is* given, it must agree with the stored identity —
        the check covers more than the symbol string, so e.g. a
        case-sensitive stand-in for a case-insensitive index is
        rejected instead of silently changing query semantics.

        Version-3 files *recover*: the newest metadata slot whose
        generation head, chain and blob CRC all verify wins, so a crash
        during :meth:`checkpoint` (torn page, missed fsync,
        half-written chain) falls back to the previous durable
        generation instead of loading garbage. A file with no intact
        generation raises a descriptive
        :class:`~repro.exceptions.StorageError`.

        With ``wal_fsync`` non-``None`` (the default) a sidecar write-
        ahead log is then scanned: its torn tail is truncated, and
        every record past the recovered checkpoint's length is
        replayed in order, restoring extends past the last checkpoint.
        Pass
        ``wal_fsync=None`` to leave the sidecar untouched and disabled
        (legacy v1/v2 files always open that way — their format
        predates the WAL).
        """
        if not os.path.exists(path):
            raise StorageError(f"{path}: no such index file")
        size = os.path.getsize(path)
        if size == 0:
            raise StorageError(
                f"{path}: empty file — no checkpoint was ever written")
        if size < page_size:
            raise StorageError(
                f"{path}: file is {size} bytes, shorter than one "
                f"{page_size}-byte page (truncated, or not an index)")
        with open(path, "rb") as handle:
            head0 = handle.read(page_size)
            head1 = handle.read(page_size)
        version = cls._probe_version(head0, head1, path)
        common = dict(page_size=page_size, buffer_pages=buffer_pages,
                      policy=policy, sync_writes=sync_writes,
                      pintop_fraction=pintop_fraction)
        if version >= 3:
            index = cls._open_v3(path, size, alphabet, **common)
            if wal_fsync is not None:
                index._attach_wal(wal_fsync, wal_fsync_interval)
            return index
        return cls._open_legacy(version, path, size, alphabet, **common)

    @classmethod
    def _probe_version(cls, head0, head1, path):
        """Decide the file's format family from the raw slot pages.

        A v3 file whose slot-0 head was torn mid-commit still
        identifies via slot 1; a file matching neither slot is not an
        index at all.
        """
        for head in (head0, head1):
            if len(head) < _META_LEGACY.size or head[:4] != cls.META_MAGIC:
                continue
            (version,) = struct.unpack_from("<H", head, 4)
            if version > cls.META_VERSION:
                raise StorageError(
                    f"{path}: unsupported disk format {version}")
            if head is head0 and version in (1, 2):
                return version
            if version == 3:
                return 3
        raise StorageError(
            f"{path}: not a disk SPINE index (no valid metadata slot)")

    @classmethod
    def _open_v3(cls, path, size, alphabet, **common):
        probe_alphabet = (alphabet if alphabet is not None
                          else dna_alphabet())
        index = cls(alphabet=probe_alphabet, path=path,
                    _defer_init=True, _format=3, **common)
        pagefile = index.pagefile
        pagefile._page_count = size // pagefile.page_size
        index._meta_page = 0
        candidates = []
        failures = []
        for slot in (0, 1):
            if slot >= pagefile.page_count:
                failures.append(f"slot {slot}: past end of file")
                continue
            try:
                gen, blob, chain = cls._read_meta_slot(pagefile, slot)
                candidates.append((gen, slot, blob, chain))
            except (StorageError, struct.error) as exc:
                failures.append(f"slot {slot}: {exc}")
        if not candidates:
            index.abort()
            raise StorageError(
                f"{path}: no intact checkpoint generation "
                f"({'; '.join(failures)})")
        gen, slot, blob, chain = max(candidates)
        for c_gen, c_slot, _c_blob, c_chain in candidates:
            index._meta_chains[c_slot] = c_chain
        try:
            cls._parse_meta_blob(index, blob, 3, alphabet)
        except StorageError:
            index.abort()
            raise
        index._generation = gen
        pagefile.generation = gen
        # Rebuild the ledger: the recovered generation's pages are
        # copy-on-write protected; every allocated page referenced by
        # neither that generation nor a metadata slot/chain (pages of
        # stale fallback generations, pages shadowed or orphaned by a
        # crashed epoch) is reclaimed for reuse.
        live = index._live_pages()
        keep = set(live)
        keep.update((0, 1))
        for chain_pages in index._meta_chains.values():
            keep.update(chain_pages)
        ledger = index._ledger
        ledger.committed = live
        ledger.free_pages = sorted(
            set(range(pagefile.page_count)) - keep, reverse=True)
        ledger.pending_free = []
        index._refresh_pintop_protection()
        return index

    def _attach_wal(self, fsync_policy, fsync_interval=32):
        """Open (or create) the sidecar WAL and replay its tail.

        Replay is strict: records at or below the recovered
        checkpoint's length are inside it; the records past it are
        applied in order, each continuing exactly at the current
        length, and the first that does not is physically cut with
        everything after it — never replayed wrong.  A log that did not
        witness the recovered checkpoint restarts empty.
        """
        wal = WriteAheadLog(wal_path_for(self._path),
                            fsync_policy=fsync_policy,
                            fsync_interval=fsync_interval,
                            base_generation=self._generation,
                            checkpoint_n=self._n)
        records = wal.recovered
        first, cut = replay_split(records, self._n)

        def before(i):
            """The log position just before ``records[i]``."""
            return records[i].offset, i, records[i - 1].lsn if i else 0

        with self.pool.rwlock.write_locked():
            for record in records[first:cut]:
                self._append_codes(record.payload, log=False)
        if cut < len(records):
            wal.rewind(*before(cut))
            wal.sync()
        wal.recovered = []
        self._wal = wal
        # abort() rewinds to where the recovered checkpoint ends.
        self._wal_mark = before(first) if first < cut else wal.position
        registry = get_registry()
        if registry.enabled and first < cut:
            registry.counter("wal.replayed_records").inc(cut - first)
            registry.counter("wal.replayed_chars").inc(
                records[cut - 1].lsn - records[first].start)
        return wal

    @classmethod
    def _read_meta_slot(cls, pagefile, slot):
        """``(generation, blob, chain_pages)`` of one v3 metadata slot;
        raises :class:`StorageError` when any byte fails validation.

        An all-zero head page is a slot no checkpoint has written yet
        (after the first checkpoint only slot 1 holds a generation); it
        is rejected without being counted as a corrupt page."""
        frame = pagefile.read_page(slot, verify=False)
        if not any(frame):
            raise StorageError("never written")
        pagefile.check_page(slot, frame)
        magic, version, _flags, blob_len, gen, blob_crc = \
            _META_V3.unpack_from(frame)
        if magic != cls.META_MAGIC:
            raise StorageError("bad magic")
        if version != 3:
            raise StorageError(f"slot holds format version {version}")
        payload = pagefile.payload_size
        per_page = payload - 4
        if not 0 <= blob_len <= pagefile.page_count * per_page:
            raise StorageError(f"implausible metadata length {blob_len}")
        chunks = [bytes(frame[_META_V3.size:per_page])]
        (nxt,) = struct.unpack_from("<i", frame, payload - 4)
        chain = []
        seen = {slot}
        while nxt != -1:
            if nxt in seen or not 0 <= nxt < pagefile.page_count:
                raise StorageError(
                    f"metadata chain broken at page {nxt}")
            seen.add(nxt)
            chain.append(nxt)
            frame = pagefile.read_page(nxt)
            chunks.append(bytes(frame[:per_page]))
            (nxt,) = struct.unpack_from("<i", frame, payload - 4)
        blob = b"".join(chunks)
        if len(blob) < blob_len:
            raise StorageError("metadata chain shorter than blob length")
        blob = blob[:blob_len]
        if zlib.crc32(blob) != blob_crc:
            raise StorageError("metadata blob CRC mismatch")
        return gen, blob, chain

    @classmethod
    def _open_legacy(cls, version, path, size, alphabet, **common):
        probe_alphabet = (alphabet if alphabet is not None
                          else dna_alphabet())
        index = cls(alphabet=probe_alphabet, path=path,
                    _defer_init=True, _format=2, **common)
        page_size = index.pagefile.page_size
        index.pagefile._page_count = size // page_size
        index._meta_page = 0
        frame = index.pagefile.read_page(0)
        _magic, _version, blob_len = _META_LEGACY.unpack_from(frame)
        payload_per_page = page_size - 4
        chunks = [bytes(frame[_META_LEGACY.size:payload_per_page])]
        (nxt,) = struct.unpack_from("<i", frame, page_size - 4)
        while nxt != -1:
            if not 0 <= nxt < index.pagefile.page_count:
                index.abort()
                raise StorageError(
                    f"{path}: metadata chain broken at page {nxt}")
            frame = index.pagefile.read_page(nxt)
            chunks.append(bytes(frame[:payload_per_page]))
            (nxt,) = struct.unpack_from("<i", frame, page_size - 4)
        blob = b"".join(chunks)[:blob_len]
        try:
            cls._parse_meta_blob(index, blob, version, alphabet)
        except StorageError:
            index.abort()
            raise
        index._refresh_pintop_protection()
        return index

    @classmethod
    def _parse_meta_blob(cls, index, blob, version, alphabet):
        """Restore alphabet identity, counters, region directories and
        RT free lists from a metadata blob (shared by all formats)."""
        meta = _walk_blob(blob, version)
        restored = Alphabet(
            meta["symbols"], name=meta["name"],
            case_insensitive=bool(meta["flags"] & _META_CASE_INSENSITIVE))
        if meta["separator"] >= 0:
            restored.separator_code = meta["separator"]
        if alphabet is not None:
            mismatches = []
            if alphabet.symbols != restored.symbols:
                mismatches.append("symbols")
            if alphabet.separator_code != restored.separator_code:
                mismatches.append("separator")
            if version >= 2:
                # Version-1 files carry no identity to compare against.
                if alphabet.case_insensitive != restored.case_insensitive:
                    mismatches.append("case folding")
                if alphabet.name != restored.name:
                    mismatches.append("name")
            if mismatches:
                raise StorageError(
                    "alphabet mismatch with stored index "
                    f"({', '.join(mismatches)})")
        index.alphabet = restored
        if restored.total_size != index._asize:
            # The probe alphabet sized the RT classes wrongly; rebuild
            # the directories to the stored alphabet before parsing
            # their page lists.
            index._asize = restored.total_size
            max_fanout = max(1, index._asize - 1)
            index._rt = {
                k: _Region(index.pagefile, index.pool,
                           struct.Struct(f"<{1 + _SLOT_INTS * k}i"),
                           index._ledger)
                for k in range(1, max_fanout + 1)
            }
            index._rt_free = {k: [] for k in index._rt}
        index._n = meta["n"]
        index._tail = None
        index._rib_count = meta["rib_count"]
        for (_, region), entry in zip(index._regions(), meta["regions"]):
            region.count = entry["records"]
            region.pages = entry["pages"]
        index._rt_free.update(meta["free_lists"])

    def _refresh_pintop_protection(self):
        if self.policy_name != "pintop":
            return
        for page_id in self._cl.pages:
            self._protected.add(page_id)
        for page_id in self._lt.pages[:self._pintop_pages]:
            self._protected.add(page_id)

    # ------------------------------------------------------------------
    # low-level record access
    # ------------------------------------------------------------------

    def _lt_write(self, node, dest, lel, rt_ptr=-1):
        """Write node's LT entry; a rib-bearing node stores the negated
        RT pointer and its link destination lives in the RT row."""
        if lel >= 0xFFFF:
            raise ConstructionError(
                "LEL exceeds the two-byte LT field (disk overflow table "
                "not implemented; use the in-memory index)")
        if self._lt.write(node, dest if rt_ptr == -1 else -rt_ptr - 1,
                          lel):
            self._refresh_pintop_protection()

    def _lt_read(self, node):
        """``(link_dest, lel, rt_ptr)`` with the displaced destination
        resolved from the RT row when the node has ribs."""
        ref, lel = self._lt.read(node)
        if ref >= 0:
            return ref, lel, -1
        rt_ptr = -ref - 1
        fanout, row = self._decode_ptr(rt_ptr)
        dest = self._rt[fanout].read(row)[0]
        return dest, lel, rt_ptr

    @staticmethod
    def _decode_ptr(ptr):
        return ptr >> _PTR_CLASS_SHIFT, ptr & _PTR_ROW_MASK

    @staticmethod
    def _encode_ptr(fanout, row):
        if row >= (1 << _PTR_CLASS_SHIFT):
            raise ConstructionError("RT row id overflow")
        return (fanout << _PTR_CLASS_SHIFT) | row

    def _alloc_row(self, fanout):
        free = self._rt_free[fanout]
        if free:
            return free.pop()
        return self._rt[fanout].count

    def _add_rib(self, node, node_dest, node_lel, rt_ptr, flat, code,
                 dest, pt):
        """Plant a rib at ``node``, migrating its already decoded row
        ``flat`` to the next RT class when it has ribs (the paper's RT
        movement)."""
        self._rib_count += 1
        if rt_ptr == -1:
            fanout = 1
            row = self._alloc_row(1)
            self._rt[1].write(row, node_dest, code, dest, pt, -1)
        else:
            fanout, row = self._decode_ptr(rt_ptr)
            self._rt_free[fanout].append(row)
            fanout += 1
            row = self._alloc_row(fanout)
            self._rt[fanout].write(row, *flat, code, dest, pt, -1)
        self._lt_write(node, node_dest, node_lel,
                       self._encode_ptr(fanout, row))

    # ------------------------------------------------------------------
    # construction (mirrors SpineIndex.append_code through the pool)
    # ------------------------------------------------------------------

    def extend(self, text):
        """Append ``text`` (online); one bulk metrics publish per call
        when the global registry is enabled.

        A character outside the alphabet rejects the whole call before
        any page or log record changes.

        Holds the pool's write lock for the whole call: concurrent
        queries (which enter under the read side) wait and then observe
        the extended index — the disk mutation path rewrites LT entries
        and migrates RT rows in place, so unlike the in-memory layer it
        cannot offer lock-free snapshot reads.
        """
        registry = get_registry()
        observing = registry.enabled
        if observing:
            started = time.perf_counter()
        codes = bytes(self.alphabet.encode(text))
        with self.pool.rwlock.write_locked():
            self._append_codes(codes)
        if observing:
            registry.counter("disk.construction.chars").inc(len(text))
            registry.timer("disk.construction.extend.seconds").observe(
                time.perf_counter() - started)

    def append_code(self, c):
        """Append one character code (the paper's APPEND, on disk)."""
        if not 0 <= c < self._asize:
            raise ConstructionError(f"code {c} out of range")
        with self.pool.rwlock.write_locked():
            self._append_codes(bytes((c,)))

    def _append_codes(self, codes, log=True):
        """Append the codes ``codes`` (bytes): range-check them all,
        log them, then per CL page store their labels with one write
        and walk the link chain once per code.

        ``log=False`` is WAL replay (the codes are already logged).
        """
        if not codes:
            return
        if max(codes) >= self._asize:
            raise ConstructionError(f"code {max(codes)} out of range")
        if log and self._wal is not None:
            # Write-ahead: the whole extend is framed and (policy
            # permitting) fsynced before any page mutates, so a crash
            # at any later point replays it on reopen.
            self._wal.append(codes, self._generation,
                             self._n + len(codes))
        cl = self._cl
        pos = 0
        while pos < len(codes):
            # One CL page slice at a time: store its labels with one
            # write, then walk them, so a long extend never loads CL
            # pages ahead of the construction frontier.
            start = self._n + 1
            piece = codes[pos:pos + cl.per_page - start % cl.per_page]
            pos += len(piece)
            before = len(cl.pages)
            cl.write_packed(start, piece)
            if len(cl.pages) > before:
                self._refresh_pintop_protection()
            for c in piece:
                n = self._n
                if n == 0:
                    link = (0, 0)
                else:
                    link = self._walk_chain(n + 1, c)
                self._lt_write(n + 1, *link)
                self._tail = link
                self._n = n + 1

    def _walk_chain(self, new, c):
        """Figure 4's walk for node ``new`` with label ``c`` (already
        stored in CL): follow the old tail's link chain, planting ribs
        and extribs, and return the new node's link ``(dest, LEL)``.

        Each chain node costs the label test ``CL[v+1] == c`` first,
        then its LT entry and at most one RT row read."""
        if self._tail is None:
            self._tail = self._lt_read(new - 1)[:2]
        v, lel = self._tail
        label = self._cl.byte
        lt_read = self._lt.read
        rt = self._rt
        while True:
            if label(v + 1) == c:
                # CASE 1: vertebra.
                return v + 1, lel + 1
            ref, v_lel = lt_read(v)
            if ref >= 0:
                v_dest, v_ptr, flat = ref, -1, None
            else:
                v_ptr = -ref - 1
                fanout, row = self._decode_ptr(v_ptr)
                flat = rt[fanout].read(row)
                v_dest = flat[0]
                for i in range(1, len(flat), _SLOT_INTS):
                    if flat[i] != c:
                        continue
                    d, pt, chead = flat[i + 1:i + 4]
                    if pt >= lel:
                        # CASE 2: rib passes the threshold test.
                        return d, lel + 1
                    # CASE 4: extend through the extrib chain.
                    return self._handle_extribs(fanout, row, flat, i, d,
                                                pt, chead, lel, new)
            # CASE 3: plant a rib at v.
            self._add_rib(v, v_dest, v_lel, v_ptr, flat, c, new, lel)
            if v == 0:
                return 0, 0
            lel = v_lel
            v = v_dest

    def _handle_extribs(self, fanout, row, flat, i, d, rib_pt, chead,
                        lel, new):
        """CASE 4: walk the rib's extrib chain (slot ``i`` of the
        decoded row ``flat``); returns the new node's link."""
        ext = self._ext
        last_dest, last_pt = d, rib_pt
        last_eid = -1
        eid = chead
        while eid != -1:
            e_dest, e_pt, e_next = ext.read(eid)
            if e_pt >= lel:
                return e_dest, lel + 1
            last_dest, last_pt = e_dest, e_pt
            last_eid = eid
            eid = e_next
        # Append a fresh extrib at the chain's end.
        new_eid = ext.count
        ext.write(new_eid, new, lel, -1)
        if last_eid == -1:
            # First element: hook the chain head into the rib slot.
            self._rt[fanout].write(
                row, *flat[:i + 3], new_eid, *flat[i + 4:])
        else:
            ext.write(last_eid, last_dest, last_pt, new_eid)
        return last_dest, last_pt + 1

    def flush(self):
        """Write back all dirty pages."""
        with self.pool.rwlock.write_locked():
            self.pool.flush()

    def close(self, checkpoint=False):
        """Flush (optionally checkpoint) and close the page file.

        Without ``checkpoint`` the WAL keeps its records, so a later
        :meth:`open` replays any extends past the last checkpoint —
        a clean close no longer silently drops them."""
        with self.pool.rwlock.write_locked():
            if checkpoint:
                self._checkpoint()
            self.pool.flush()
            self.pagefile.close()
            if self._wal is not None and not self._wal.closed:
                self._wal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self):
        return self._n

    @property
    def rib_count(self):
        """Number of ribs planted so far."""
        return self._rib_count

    @property
    def text(self):
        """The indexed string, decoded from the CL region (reads every
        character label through the buffer pool — intended for tests,
        verification and small indexes, not the serving hot path)."""
        with self.pool.rwlock.read_locked():
            # CL records are one byte: the slices are the codes.
            codes = b"".join(chunk for _, chunk
                             in self._cl.page_slices(1, self._n + 1))
        return self.alphabet.decode(codes)

    def vertebra_label(self, i):
        """Character code of the vertebra into node ``i`` (1-based)."""
        if not 1 <= i <= self._n:
            raise SearchError(f"vertebra {i} out of range")
        return self._cl.byte(i)

    def _rt_row(self, node):
        """The decoded RT row of ``node`` — its displaced link
        destination, then ``code, dest, PT, chain head`` per rib — or
        ``()`` when it has no ribs: one LT entry and one RT row read."""
        if not 0 <= node <= self._n:
            return ()
        ref = self._lt.read(node)[0]
        if ref >= 0:
            return ()
        fanout, row = self._decode_ptr(-ref - 1)
        return self._rt[fanout].read(row)

    def _find_slot(self, node, code):
        """``(dest, PT, chain head)`` of the rib at ``node`` for
        ``code``, or ``None``."""
        flat = self._rt_row(node)
        for i in range(1, len(flat), _SLOT_INTS):
            if flat[i] == code:
                return flat[i + 1:i + 4]
        return None

    def ribs_at(self, node):
        """Dict ``code -> (dest, PT)`` at ``node`` (mirrors the
        reference index)."""
        flat = self._rt_row(node)
        return {flat[i]: (flat[i + 1], flat[i + 2])
                for i in range(1, len(flat), _SLOT_INTS)}

    def rib(self, node, code):
        """``(dest, PT)`` of the rib at ``node`` for ``code``, or None."""
        hit = self._find_slot(node, code)
        return None if hit is None else hit[:2]

    def extrib_chain(self, node, code):
        """The extrib chain ``(dest, PT), ...`` of the rib at ``node``
        for ``code``, thresholds ascending (empty when the rib has never
        been extended). A generator: each element's EXT record is read
        only when the consumer asks for it."""
        hit = self._find_slot(node, code)
        eid = -1 if hit is None else hit[2]
        while eid != -1:
            e_dest, e_pt, eid = self._ext.read(eid)
            yield e_dest, e_pt

    def vertebra_run(self, node, codes, i):
        """How many leading ``codes[i:]`` equal the vertebra labels
        after ``node`` (0 at the tail): one pool lookup per CL page
        slice, and no page past the first mismatch."""
        stop = node + 1 + min(len(codes) - i, self._n - node)
        run = 0
        # CL records are one byte: a page slice is the labels.
        for _, labels in self._cl.page_slices(node + 1, stop):
            for label in labels:
                if label != codes[i + run]:
                    return run
                run += 1
        return run

    def enable_concurrent_reads(self):
        """Make the read path safe for parallel query threads.

        Switches the buffer pool to latched, pinning operation
        (idempotent; never reverts — the single-thread fast path is
        given up for this index). Queries already coordinate with
        mutations through the pool's read-write lock; this adds frame-
        level safety between concurrent readers.
        """
        self.pool.enable_thread_safety()
        return self

    def read_locked(self):
        """Context manager entering the query (shared) side of the
        pool's read-write lock — what the query engine wraps each
        traversal and scan in."""
        return self.pool.rwlock.read_locked()

    def link(self, i):
        """``(dest, LEL)`` of node ``i``."""
        if not 1 <= i <= self._n:
            raise SearchError(f"node {i} out of range or is the root")
        dest, lel, _ = self._lt_read(i)
        return dest, lel

    #: Link-scan windows end on multiples of the stride: whole pages.
    scan_aligned = True

    @property
    def scan_stride(self):
        """Link-scan window stride: the whole LT pages that fit in
        :data:`repro.core.search.SCAN_WINDOW` positions (at least one)."""
        per_page = self._lt.per_page
        return max(1, search.SCAN_WINDOW // per_page) * per_page

    def link_candidates(self, start, stop, min_lel):
        """``(nodes, dests, LELs)`` arrays of the LT entries ``start <=
        j < stop`` with ``LEL >= min_lel``, or ``None`` — one window of
        :func:`repro.core.search.link_scan`: one pool lookup per page,
        decoded as arrays with the LEL tested first, then that page's
        qualifying displaced destinations from their RT rows, in
        ascending order."""
        rt = self._rt
        nodes, dests, lels = [], [], []
        for first, chunk in self._lt.page_slices(start, stop):
            entries = np.frombuffer(chunk, dtype=_LT_DTYPE)
            keep = (entries["lel"] >= min_lel).nonzero()[0]
            if not keep.size:
                continue
            refs = entries["ref"][keep]
            for k in (refs < 0).nonzero()[0].tolist():
                ptr = -int(refs[k]) - 1
                refs[k] = rt[ptr >> _PTR_CLASS_SHIFT].read(
                    ptr & _PTR_ROW_MASK)[0]
            nodes.append(keep.astype(np.int32) + first)
            dests.append(refs)
            lels.append(entries["lel"][keep])
        if not nodes:
            return None
        # int32/uint16 columns sized by the window's candidates.
        return (np.concatenate(nodes), np.concatenate(dests),
                np.concatenate(lels))

    def io_snapshot(self):
        """Physical + buffer counters accumulated so far.

        When metrics are enabled (:mod:`repro.obs`), the snapshot is
        also mirrored into the global registry as ``disk.*`` counters
        (set, not added — the underlying
        :class:`~repro.storage.metrics.IOMetrics` is already
        cumulative).
        """
        snapshot = self.pagefile.metrics.snapshot()
        record_io_snapshot(get_registry(), snapshot, prefix="disk")
        return snapshot
