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
"""

from __future__ import annotations

import os
import struct
import time
import zlib

from repro.alphabet import Alphabet, dna_alphabet
from repro.core import matching, search
from repro.exceptions import ConstructionError, SearchError, StorageError
from repro.obs import get_registry, record_io_snapshot
from repro.storage.buffer import (
    BufferPool, ClockPolicy, LRUPolicy, PinTopPolicy)
from repro.storage.pager import PageFile
from repro.storage.wal import WriteAheadLog, wal_path_for

_CL = struct.Struct("<B")
_LT = struct.Struct("<iH")
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
    """One record region spread over pages of the shared file."""

    __slots__ = ("pagefile", "pool", "record", "per_page", "pages",
                 "count", "ledger")

    def __init__(self, pagefile, pool, record, ledger=None):
        self.pagefile = pagefile
        self.pool = pool
        self.record = record
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

    def _locate(self, index):
        page_no, slot = divmod(index, self.per_page)
        return self.pages[page_no], slot * self.record.size

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
        page_id, offset = self._locate(index)
        pool = self.pool
        if pool.thread_safe:
            with pool.pinned(page_id) as frame:
                return self.record.unpack_from(frame, offset)
        frame = pool.get(page_id)
        return self.record.unpack_from(frame, offset)

    def iter_records(self, start, stop):
        """Yield the unpacked records ``start <= index < stop``, one
        page at a time.

        Each page is looked up once through the pool (so faults,
        checksum checks, retries and trace attribution stay per page);
        the covered slice is copied out — under a pin when the pool is
        thread-safe — and decoded with ``Struct.iter_unpack`` after the
        frame is released. Records never span pages, so the consumer
        may touch other pages between records without invalidating the
        decode.
        """
        per_page = self.per_page
        size = self.record.size
        iter_unpack = self.record.iter_unpack
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
            yield from iter_unpack(chunk)
            index = end

    def write(self, index, *values):
        """Pack ``values`` into record ``index`` (allocating pages).

        A page referenced by the last durable checkpoint is shadowed —
        copied to a fresh page id — before the mutation, so a crash can
        always roll back to that checkpoint (see :class:`_PageLedger`).
        """
        fresh = self.ensure(index)
        page_no, slot = divmod(index, self.per_page)
        page_id = self.pages[page_no]
        ledger = self.ledger
        if (not fresh and ledger is not None
                and page_id in ledger.committed):
            page_id = ledger.shadow(page_id)
            self.pages[page_no] = page_id
            frame = self.pool.get(page_id)
        else:
            # A freshly allocated page has no on-disk contents to load.
            frame = self.pool.get(page_id, load=not fresh)
        self.record.pack_into(frame, slot * self.record.size, *values)
        self.pool.mark_dirty(page_id)


class DiskSpineIndex:
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
        self._rib_count = 0
        #: Last durable checkpoint generation (0 = never checkpointed).
        self._generation = 0
        #: Continuation pages of each metadata slot (v3; grown on
        #: demand, reused checkpoint after checkpoint).
        self._meta_chains = {0: [], 1: []}
        self._path = path
        #: Write-ahead log of extend records (None when disabled).
        self._wal = None
        if _defer_init:
            return
        if path is not None and fmt >= 3 and wal_fsync is not None:
            # A brand-new index starts from an empty log even when a
            # stale sidecar exists at the same path.
            self._wal = WriteAheadLog(
                wal_path_for(path), fsync_policy=wal_fsync,
                fsync_interval=wal_fsync_interval, fresh=True)
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
        flushing and *discard* the write-ahead log, so a reopen serves
        exactly the last durable generation.  Also the cleanup path
        for a failed :meth:`open`.  To simulate a crash that keeps the
        log (reopen-and-replay), use :meth:`crash`."""
        self.pagefile.close(sync=False)
        if self._wal is not None:
            self._wal.discard()
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
            # Every logged extend is now inside the durable
            # checkpoint; cut the log only *after* the commit point so
            # a crash in between replays nothing wrong (the stale
            # records' stamps predate the recovered generation).
            self._wal.truncate(gen)

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
        every record stamped with the recovered generation is replayed
        in order, restoring extends past the last checkpoint.  Pass
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

        Replay is strict: records stamped with an older generation are
        already inside the recovered checkpoint and are skipped;
        records stamped with the recovered generation are applied in
        order, each required to continue exactly at the current index
        length.  The first record that breaks either rule — a stamp
        from the future, an LSN discontinuity — ends the replay and is
        physically truncated along with everything after it: a
        questionable tail is dropped, never replayed wrong.
        """
        wal = WriteAheadLog(wal_path_for(self._path),
                            fsync_policy=fsync_policy,
                            fsync_interval=fsync_interval,
                            base_generation=self._generation)
        replayed_chars = 0
        replayed_records = 0
        kept_records = 0
        kept_lsn = 0
        cut_at = None
        with self.pool.rwlock.write_locked():
            for record in wal.recovered:
                if record.generation < self._generation:
                    kept_records += 1
                    kept_lsn = record.lsn
                    continue
                if (record.generation > self._generation
                        or record.lsn != self._n + len(record.payload)):
                    cut_at = record.offset
                    break
                for c in record.payload:
                    self._append_code(c)
                replayed_records += 1
                replayed_chars += len(record.payload)
                kept_records += 1
                kept_lsn = record.lsn
        if cut_at is not None:
            wal.rewind(cut_at, kept_records, kept_lsn)
        wal.recovered = []
        self._wal = wal
        registry = get_registry()
        if registry.enabled and replayed_records:
            registry.counter("wal.replayed_records").inc(
                replayed_records)
            registry.counter("wal.replayed_chars").inc(replayed_chars)
        return wal

    @classmethod
    def _read_meta_slot(cls, pagefile, slot):
        """``(generation, blob, chain_pages)`` of one v3 metadata slot;
        raises :class:`StorageError` when any byte fails validation."""
        frame = pagefile.read_page(slot)
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
        offset = 0
        n, rib_count, sep, sym_len = struct.unpack_from("<qqhH", blob,
                                                        offset)
        offset += 20
        symbols = blob[offset:offset + sym_len].decode("utf-8")
        offset += sym_len
        name = "generic"
        case_insensitive = False
        if version >= 2:
            flags, name_len = struct.unpack_from("<BH", blob, offset)
            offset += 3
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            case_insensitive = bool(flags & _META_CASE_INSENSITIVE)
        restored = Alphabet(symbols, name=name,
                            case_insensitive=case_insensitive)
        if sep >= 0:
            restored.separator_code = sep
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
        index._n = n
        index._rib_count = rib_count
        for _, region in index._regions():
            count, npages = struct.unpack_from("<qi", blob, offset)
            offset += 12
            pages = list(struct.unpack_from(f"<{npages}i", blob, offset))
            offset += 4 * npages
            region.count = count
            region.pages = pages
        for k in sorted(index._rt_free):
            (nfree,) = struct.unpack_from("<i", blob, offset)
            offset += 4
            index._rt_free[k] = list(
                struct.unpack_from(f"<{nfree}i", blob, offset))
            offset += 4 * nfree

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
        before = len(self._lt.pages)
        ref = dest if rt_ptr == -1 else -rt_ptr - 1
        self._lt.write(node, ref, lel)
        if self.policy_name == "pintop" and len(self._lt.pages) > before:
            # Protect the tiny CL region and the top of the LT.
            for page_id in self._cl.pages:
                self._protected.add(page_id)
            for page_id in self._lt.pages[:self._pintop_pages]:
                self._protected.add(page_id)

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

    def _row_slots(self, fanout, row):
        """``(ld, [(code, dest, pt, chain_head), ...])`` for a row."""
        flat = self._rt[fanout].read(row)
        ld = flat[0]
        slots = [tuple(flat[1 + i * _SLOT_INTS:1 + (i + 1) * _SLOT_INTS])
                 for i in range(fanout)]
        return ld, slots

    def _write_row(self, fanout, row, ld, slots):
        flat = [ld] + [value for slot in slots for value in slot]
        self._rt[fanout].write(row, *flat)

    def _alloc_row(self, fanout):
        free = self._rt_free[fanout]
        if free:
            return free.pop()
        return self._rt[fanout].count

    def _find_slot(self, rt_ptr, code):
        """Probe the node's RT row for ``code``; one page touch.

        Returns ``(fanout, row, slot_index, dest, pt, chain_head)`` or
        ``None``.
        """
        if rt_ptr == -1:
            return None
        fanout, row = self._decode_ptr(rt_ptr)
        _, slots = self._row_slots(fanout, row)
        for idx, (s_code, dest, pt, chead) in enumerate(slots):
            if s_code == code:
                return fanout, row, idx, dest, pt, chead
        return None

    def _add_rib(self, node, node_dest, node_lel, rt_ptr, code, dest, pt):
        """Plant a rib at ``node``, migrating its row to the next RT
        class when it already has ribs (the paper's RT movement)."""
        self._rib_count += 1
        if rt_ptr == -1:
            row = self._alloc_row(1)
            self._write_row(1, row, node_dest, [(code, dest, pt, -1)])
            new_ptr = self._encode_ptr(1, row)
        else:
            fanout, row = self._decode_ptr(rt_ptr)
            ld, slots = self._row_slots(fanout, row)
            slots.append((code, dest, pt, -1))
            self._rt_free[fanout].append(row)
            new_row = self._alloc_row(fanout + 1)
            self._write_row(fanout + 1, new_row, ld, slots)
            new_ptr = self._encode_ptr(fanout + 1, new_row)
        self._lt_write(node, node_dest, node_lel, new_ptr)

    # ------------------------------------------------------------------
    # construction (mirrors SpineIndex.append_code through the pool)
    # ------------------------------------------------------------------

    def extend(self, text):
        """Append ``text`` (online); one bulk metrics publish per call
        when the global registry is enabled.

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
        encode = self.alphabet.encode_char
        with self.pool.rwlock.write_locked():
            if self._wal is not None and text:
                # Write-ahead: the whole extend is framed and (policy
                # permitting) fsynced before any page mutates, so a
                # crash at any later point replays it on reopen.
                codes = bytes(encode(ch) for ch in text)
                self._wal.append(codes, self._generation,
                                 self._n + len(codes))
                for c in codes:
                    self._append_code(c)
            else:
                for ch in text:
                    self._append_code(encode(ch))
        if observing:
            registry.counter("disk.construction.chars").inc(len(text))
            registry.timer("disk.construction.extend.seconds").observe(
                time.perf_counter() - started)

    def append_code(self, c):
        """Append one character code (the paper's APPEND, on disk)."""
        with self.pool.rwlock.write_locked():
            if self._wal is not None:
                if not 0 <= c < self._asize:
                    raise ConstructionError(f"code {c} out of range")
                self._wal.append(bytes((c,)), self._generation,
                                 self._n + 1)
            self._append_code(c)

    def _append_code(self, c):
        if not 0 <= c < self._asize:
            raise ConstructionError(f"code {c} out of range")
        n = self._n
        new = n + 1
        self._n = new
        self._cl.write(new, c)
        if n == 0:
            self._lt_write(new, 0, 0)
            return
        v, lel, _ = self._lt_read(n)
        while True:
            v_dest, v_lel, v_ptr = self._lt_read(v)
            if self._cl.read(v + 1)[0] == c:
                # CASE 1: vertebra.
                self._lt_write(new, v + 1, lel + 1)
                return
            hit = self._find_slot(v_ptr, c)
            if hit is not None:
                fanout, row, idx, d, pt, chead = hit
                if pt >= lel:
                    # CASE 2: rib passes the threshold test.
                    self._lt_write(new, d, lel + 1)
                    return
                # CASE 4: extend through the extrib chain.
                self._handle_extribs(fanout, row, idx, d, pt, chead,
                                     lel, new)
                return
            # CASE 3: plant a rib at v.
            self._add_rib(v, v_dest, v_lel, v_ptr, c, new, lel)
            if v == 0:
                self._lt_write(new, 0, 0)
                return
            lel = v_lel
            v = v_dest

    def _handle_extribs(self, fanout, row, idx, d, rib_pt, chead,
                        lel, new):
        last_dest, last_pt = d, rib_pt
        last_eid = -1
        eid = chead
        while eid != -1:
            e_dest, e_pt, e_next = self._ext.read(eid)
            if e_pt >= lel:
                self._lt_write(new, e_dest, lel + 1)
                return
            last_dest, last_pt = e_dest, e_pt
            last_eid = eid
            eid = e_next
        # Append a fresh extrib at the chain's end.
        new_eid = self._ext.count
        self._ext.write(new_eid, new, lel, -1)
        if last_eid == -1:
            # First element: hook the chain head into the rib slot.
            ld, slots = self._row_slots(fanout, row)
            code, dest, pt, _ = slots[idx]
            slots[idx] = (code, dest, pt, new_eid)
            self._write_row(fanout, row, ld, slots)
        else:
            t_dest, t_pt, _ = self._ext.read(last_eid)
            self._ext.write(last_eid, t_dest, t_pt, new_eid)
        self._lt_write(new, last_dest, last_pt + 1)

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
            codes = [c for (c,) in self._cl.iter_records(1, self._n + 1)]
        return self.alphabet.decode(codes)

    def vertebra_label(self, i):
        """Character code of the vertebra into node ``i`` (1-based)."""
        if not 1 <= i <= self._n:
            raise SearchError(f"vertebra {i} out of range")
        return self._cl.read(i)[0]

    def ribs_at(self, node):
        """Dict ``code -> (dest, PT)`` at ``node`` (mirrors the
        reference index; one RT row read)."""
        if not 0 <= node <= self._n:
            return {}
        ref = self._lt.read(node)[0]
        if ref >= 0:
            return {}
        fanout, row = self._decode_ptr(-ref - 1)
        _, slots = self._row_slots(fanout, row)
        return {code: (dest, pt) for code, dest, pt, _ in slots}

    def rib(self, node, code):
        """``(dest, PT)`` of the rib at ``node`` for ``code``, or None."""
        return self.ribs_at(node).get(code)

    def extrib_chain(self, node, code):
        """The extrib chain ``[(dest, PT), ...]`` of the rib at ``node``
        for ``code`` (empty when the rib has never been extended)."""
        if not 0 <= node <= self._n:
            return []
        ref = self._lt.read(node)[0]
        hit = self._find_slot(-ref - 1 if ref < 0 else -1, code)
        if hit is None:
            return []
        chain = []
        eid = hit[5]
        while eid != -1:
            e_dest, e_pt, e_next = self._ext.read(eid)
            chain.append((e_dest, e_pt))
            eid = e_next
        return chain

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

    def iter_link_entries(self, lo, hi, min_lel, targets):
        """Yield ``(j, dest, LEL)`` for nodes ``lo < j <= hi`` with
        ``LEL >= min_lel`` and ``dest`` in ``targets`` (which may grow
        between yields) — one strictly sequential Link-Table sweep
        through the buffer pool (the access pattern the paper's
        Figure 8 buffering argument is built on).

        The sweep decodes a page of LT entries per pool lookup and
        tests the LEL first: only an entry that qualifies and whose
        destination was displaced into an RT row (negative ``ref``)
        costs the extra RT row read.
        """
        n = min(hi, self._n)
        rt = self._rt
        j = lo
        for ref, lel in self._lt.iter_records(lo + 1, n + 1):
            j += 1
            if lel < min_lel:
                continue
            if ref < 0:
                ptr = -ref - 1
                ref = rt[ptr >> _PTR_CLASS_SHIFT].read(
                    ptr & _PTR_ROW_MASK)[0]
            if ref in targets:
                yield j, ref, lel

    def step(self, node, pathlength, code, _span=None):
        """Same contract as :meth:`SpineIndex.step`, via the pool.

        With an active trace span (``_span``), edge decisions are
        recorded; the buffer pool independently attributes any page
        faults these record reads cause to the same span.
        """
        if node < self._n and self._cl.read(node + 1)[0] == code:
            if _span is not None:
                _span.vertebra(node)
            return node + 1
        if node <= self._n:
            ref = self._lt.read(node)[0]
            rt_ptr = -ref - 1 if ref < 0 else -1
        else:
            rt_ptr = -1
        hit = self._find_slot(rt_ptr, code)
        if hit is None:
            if _span is not None:
                _span.event("no-edge", node=node, code=code,
                            pathlength=pathlength)
            return None
        _, _, _, d, pt, chead = hit
        if _span is not None:
            _span.event("enter-rib", node=node, code=code, dest=d,
                        pt=pt, pathlength=pathlength)
        if pathlength <= pt:
            if _span is not None:
                _span.event("pt-accept", node=node, pt=pt,
                            pathlength=pathlength, dest=d)
            return d
        if _span is not None:
            _span.event("pt-reject", node=node, pt=pt,
                        pathlength=pathlength)
        eid = chead
        while eid != -1:
            e_dest, e_pt, e_next = self._ext.read(eid)
            taken = e_pt >= pathlength
            if _span is not None:
                _span.event("extrib-fallthrough", node=node, pt=e_pt,
                            pathlength=pathlength, dest=e_dest,
                            taken=taken)
            if taken:
                return e_dest
            eid = e_next
        if _span is not None:
            _span.event("no-edge", node=node, code=code,
                        pathlength=pathlength, exhausted="extribs")
        return None

    def contains(self, pattern):
        """True iff ``pattern`` occurs in the indexed string."""
        return search.contains(self, pattern)

    def find_first(self, pattern):
        """Start of the first occurrence, or ``None`` (paper Section 4.1:
        the traversal endpoint *is* the first occurrence's end node)."""
        return search.find_first(self, pattern)

    def find_all(self, pattern):
        """Sorted 0-indexed starts of all occurrences (first occurrence
        by traversal, repetitions by the sequential LT scan)."""
        return search.find_all(self, pattern)

    def count(self, pattern):
        """Number of (overlapping) occurrences of ``pattern``."""
        return search.count(self, pattern)

    def matching_statistics(self, query):
        """Disk-resident matching statistics."""
        return matching.matching_statistics(self, query)

    def maximal_matches(self, query, min_length=1):
        """Right-maximal matches with all data positions, resolved by
        one deferred LT scan (Section 4's batched strategy), on disk."""
        return matching.maximal_matches(self, query, min_length)

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
