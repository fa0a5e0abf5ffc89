"""Buffer manager with pluggable replacement policies.

The paper's Figure 8 observation — SPINE links overwhelmingly target
the *top* of the backbone — motivates its suggested buffering strategy:
"retain as much as possible of the top part of the Link Table in
memory". :class:`PinTopPolicy` implements exactly that (low page ids of
a protected region are evicted last); plain :class:`LRUPolicy` and
:class:`ClockPolicy` serve as the generic baselines for the buffering
ablation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager

from repro.exceptions import StorageError
from repro.obs.trace import active_span
from repro.storage.failpoints import get_failpoints

_FAILPOINTS = get_failpoints()


class ReadWriteLock:
    """A writer-preferring shared/exclusive lock.

    Any number of readers may hold the lock together; a writer holds it
    alone. Waiting writers block new readers so a steady query stream
    cannot starve ``extend``. Neither side is reentrant — acquire once
    per thread, at the public entry point.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self):
        """Block until no writer holds or awaits the lock, then enter
        as one more reader."""
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self):
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self):
        """Block until the lock is completely free, then hold it
        exclusively."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self):
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        """``with lock.read_locked():`` — shared access."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """``with lock.write_locked():`` — exclusive access."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()


class _NullLatch:
    """Shared no-op stand-in for the pool latch when single-threaded."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_LATCH = _NullLatch()


class LRUPolicy:
    """Least-recently-used eviction."""

    name = "lru"

    def __init__(self):
        self._order = OrderedDict()
        #: Recency update of a page already resident: one C call.
        self.hit = self._order.move_to_end

    def touch(self, page_id):
        """Mark ``page_id`` most recently used."""
        try:
            self._order.move_to_end(page_id)
        except KeyError:
            self._order[page_id] = True

    def evict(self):
        if not self._order:
            raise StorageError("no page to evict")
        page_id, _ = self._order.popitem(last=False)
        return page_id

    def forget(self, page_id):
        """Drop ``page_id`` from consideration (page discarded)."""
        self._order.pop(page_id, None)


class ClockPolicy:
    """Second-chance (CLOCK) eviction."""

    name = "clock"

    def __init__(self):
        self._ref = OrderedDict()  # page -> referenced bit

    def touch(self, page_id):
        """Set the page's referenced bit (a new page joins the tail)."""
        self._ref[page_id] = True

    hit = touch

    def evict(self):
        if not self._ref:
            raise StorageError("no page to evict")
        while True:
            page_id, referenced = next(iter(self._ref.items()))
            self._ref.pop(page_id)
            if referenced:
                self._ref[page_id] = False  # second chance, move to tail
            else:
                return page_id

    def forget(self, page_id):
        """Drop ``page_id`` from consideration (page discarded)."""
        self._ref.pop(page_id, None)


class PinTopPolicy:
    """The paper's SPINE-specific policy: prefer to keep a protected
    set of pages (the top of the Link Table) resident; everything else
    — and, under extreme pressure, the protected pages themselves,
    newest first — evicts LRU.

    Parameters
    ----------
    protected_pages:
        A set of page ids to protect. The caller may keep mutating it
        (the disk index adds the first pages of its Link Table as they
        are allocated).
    """

    name = "pintop"

    def __init__(self, protected_pages=None):
        self.protected_pages = (protected_pages
                                if protected_pages is not None else set())
        self._lru = OrderedDict()
        self._protected = {}  # resident protected pages (insertion order)

    def touch(self, page_id):
        if page_id in self.protected_pages:
            self._protected[page_id] = True
            self._lru.pop(page_id, None)
        else:
            self._lru.pop(page_id, None)
            self._lru[page_id] = True

    hit = touch

    def evict(self):
        # A page touched *before* its id entered the (mutable)
        # protected set still sits in the plain LRU dict; reclassify
        # such late-protected pages instead of evicting them.
        while self._lru:
            page_id, _ = self._lru.popitem(last=False)
            if page_id in self.protected_pages:
                self._protected[page_id] = True
                continue
            return page_id
        if self._protected:
            page_id, _ = self._protected.popitem()  # newest protected
            return page_id
        raise StorageError("no page to evict")

    def forget(self, page_id):
        self._lru.pop(page_id, None)
        self._protected.pop(page_id, None)


class BufferPool:
    """A bounded write-back cache of pages over a :class:`PageFile`.

    ``get(page_id)`` returns the cached ``bytearray`` for the page,
    faulting it in (and evicting under pressure) as needed; call
    ``mark_dirty`` after mutating it. ``flush`` writes back all dirty
    pages. All physical traffic lands in ``pagefile.metrics``; hit/miss
    counters land there too.

    Concurrency. The pool starts single-threaded, and then a lookup of
    a resident page is one straight-line path: a dict probe, the hit
    counter and the policy's one-call recency update (``hit``), with
    no latch context entered. :meth:`mark_dirty` skips the latch the
    same way. Misses, evictions and everything else take the full
    path, so the counters and the replacement order are the same on
    both paths. A caller that wants parallel readers calls
    :meth:`enable_thread_safety`, after which every structural
    operation, hits included, runs under an internal latch.
    Independently of the latch, :attr:`rwlock` is the advisory
    shared/exclusive lock query and mutation *paths* coordinate
    through (readers: queries; writer:
    ``extend`` / checkpoint — see :class:`ReadWriteLock`), and
    :meth:`pin` / :meth:`pinned` keep a frame resident while a reader
    still unpacks records from it, so parallel queries cannot evict
    each other's in-flight frames.
    """

    def __init__(self, pagefile, capacity, policy=None,
                 thread_safe=False):
        if capacity <= 0:
            raise StorageError("buffer capacity must be positive")
        self.pagefile = pagefile
        self.capacity = capacity
        self.policy = policy if policy is not None else LRUPolicy()
        self._hit = self.policy.hit
        self._frames = {}  # page_id -> bytearray
        self._dirty = set()
        self._pins = {}    # page_id -> pin count
        #: Advisory query-path/mutation-path lock (see class docstring).
        self.rwlock = ReadWriteLock()
        self._latch = _NULL_LATCH
        #: True once :meth:`enable_thread_safety` has been called (a
        #: plain attribute: the hit path reads it on every lookup).
        self.thread_safe = False
        if thread_safe:
            self.enable_thread_safety()

    def enable_thread_safety(self):
        """Switch the internal latch on (idempotent; never reverts).

        The latch is reentrant, so :meth:`pinned` can compose atomically
        with :meth:`get`. The swap runs under the pool's write lock so
        no in-flight reader can straddle the transition — consequently
        this must not be called by a thread already holding
        :attr:`rwlock` (it is non-reentrant).
        """
        if self._latch is not _NULL_LATCH:
            return self
        with self.rwlock.write_locked():
            if self._latch is _NULL_LATCH:
                self._latch = threading.RLock()
                self.thread_safe = True
        return self

    def __len__(self):
        return len(self._frames)

    def stats(self):
        """Point-in-time health readings for introspection surfaces
        (:mod:`repro.obs.health`): residency, pins, dirty pages and
        the cumulative hit rate from the page file's
        :class:`~repro.storage.metrics.IOMetrics`."""
        with self._latch:
            metrics = self.pagefile.metrics
            hits = metrics.buffer_hits
            misses = metrics.buffer_misses
            looked_up = hits + misses
            return {
                "capacity": self.capacity,
                "resident_pages": len(self._frames),
                "pinned_pages": len(self._pins),
                "dirty_pages": len(self._dirty),
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / looked_up if looked_up else 0.0,
                "evictions": metrics.evictions,
                "thread_safe": self.thread_safe,
            }

    def get(self, page_id, load=True):
        """Return the buffered page, faulting it in if necessary.

        ``load=False`` skips the physical read for pages known to be
        fresh allocations (their content starts zeroed).
        """
        if not self.thread_safe:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.pagefile.metrics.buffer_hits += 1
                self._hit(page_id)
                return frame
        with self._latch:
            metrics = self.pagefile.metrics
            frame = self._frames.get(page_id)
            if frame is not None:
                metrics.buffer_hits += 1
                self.policy.touch(page_id)
                return frame
            metrics.buffer_misses += 1
            # Attribute the fault to the traced query that caused it
            # (the active span of :mod:`repro.obs.trace`, if any).
            # ``physical`` distinguishes real page reads from
            # fresh-allocation faults.
            span = active_span()
            if span is not None:
                span.event("page-fetch", page=page_id, physical=load)
            if len(self._frames) >= self.capacity:
                self._evict_one()
            if load:
                frame = self.pagefile.read_page(page_id)
            else:
                frame = bytearray(self.pagefile.page_size)
            self._frames[page_id] = frame
            self.policy.touch(page_id)
            return frame

    # -- pinning -------------------------------------------------------

    def pin(self, page_id):
        """Exempt a resident page from eviction (counted; nestable)."""
        with self._latch:
            if page_id not in self._frames:
                raise StorageError(f"page {page_id} not resident")
            self._pins[page_id] = self._pins.get(page_id, 0) + 1

    def unpin(self, page_id):
        """Drop one pin; the page becomes evictable at zero pins."""
        with self._latch:
            count = self._pins.get(page_id, 0)
            if count <= 0:
                raise StorageError(f"page {page_id} is not pinned")
            if count == 1:
                del self._pins[page_id]
            else:
                self._pins[page_id] = count - 1

    def pin_count(self, page_id):
        """Current pin count of ``page_id`` (0 when unpinned)."""
        return self._pins.get(page_id, 0)

    @contextmanager
    def pinned(self, page_id, load=True):
        """Fault the page in, pin it, yield the frame, unpin on exit.

        The get-and-pin pair runs under one latch acquisition, so a
        concurrent reader's eviction cannot slip between them.
        """
        with self._latch:
            frame = self.get(page_id, load=load)
            self._pins[page_id] = self._pins.get(page_id, 0) + 1
        try:
            yield frame
        finally:
            self.unpin(page_id)

    # -- mutation ------------------------------------------------------

    def mark_dirty(self, page_id):
        """Record that the resident page was mutated."""
        if not self.thread_safe and page_id in self._frames:
            self._dirty.add(page_id)
            return
        with self._latch:
            if page_id not in self._frames:
                raise StorageError(f"page {page_id} not resident")
            self._dirty.add(page_id)

    def discard(self, page_id):
        """Drop a clean, unpinned resident frame without writing it
        back (used when a page's identity is retired, e.g. after a
        copy-on-write shadow). A no-op for non-resident pages."""
        with self._latch:
            if page_id not in self._frames:
                return
            if self._pins.get(page_id, 0) or page_id in self._dirty:
                raise StorageError(
                    f"cannot discard page {page_id}: pinned or dirty")
            del self._frames[page_id]
            self.policy.forget(page_id)

    def _evict_one(self):
        # Pinned pages are not eviction candidates: set them aside,
        # take the policy's next victim, then restore the recency of
        # everything skipped.
        skipped = []
        victim = None
        try:
            while True:
                candidate = self.policy.evict()
                if self._pins.get(candidate, 0):
                    skipped.append(candidate)
                    continue
                victim = candidate
                break
        except StorageError:
            # The policy ran dry before yielding an unpinned victim.
            for page_id in skipped:
                self.policy.touch(page_id)
            if skipped:
                raise StorageError(
                    "cannot evict: every resident page is pinned"
                ) from None
            raise
        for page_id in skipped:
            self.policy.touch(page_id)
        if _FAILPOINTS.active:
            # Fires *before* the frame is dropped; an injected fault
            # leaves the pool consistent (the victim stays resident and
            # is restored in the policy).
            try:
                _FAILPOINTS.fire("buffer.evict", page=victim)
            except BaseException:
                self.policy.touch(victim)
                raise
        frame = self._frames[victim]
        if victim in self._dirty:
            # Write back *before* dropping the frame: a failed
            # write-back must leave the page resident and dirty, or a
            # transient fault silently loses committed mutations (the
            # page would be re-read from its stale on-disk bytes).
            try:
                self.pagefile.write_page(victim, frame)
            except BaseException:
                self.policy.touch(victim)
                raise
            self._dirty.discard(victim)
        del self._frames[victim]
        self.pagefile.metrics.evictions += 1

    def flush(self):
        """Write back every dirty page (ascending id: one arm sweep)."""
        with self._latch:
            for page_id in sorted(self._dirty):
                self.pagefile.write_page(page_id, self._frames[page_id])
            self._dirty.clear()

    def clear(self):
        """Flush and drop every frame (cold-cache reset).

        Pinned frames are a caller bug at this point and are reported
        rather than silently dropped.
        """
        with self._latch:
            if self._pins:
                raise StorageError(
                    f"cannot clear: {len(self._pins)} page(s) still "
                    "pinned")
            self.flush()
            for page_id in list(self._frames):
                self.policy.forget(page_id)
            self._frames.clear()
