"""Concurrent query serving over a SPINE index.

Two pieces:

:class:`SnapshotGuard`
    Captures ``len(index)`` and answers every query against that
    prefix, exploiting the Section 2.7 prefix property: the index of a
    prefix of the data string is an initial fragment of the full
    index — edges planted after character ``k`` always point past
    ``k``, and existing entries are never relabeled. Bounding a
    traversal and the occurrence scan to the captured length therefore
    reads a consistent index even while ``extend`` appends
    concurrently — with **no locking at all** on the in-memory layers
    (appends to the backing lists/arrays are atomic under CPython, and
    readers simply refuse to follow edges across the boundary).

:class:`QueryService`
    A thread-pool query driver. Reads (``contains`` / ``find_all`` /
    ``batch_find_all``) run against a snapshot taken at call entry;
    writes (``extend``) are serialized through a mutex. On the disk
    layer, where mutation rewrites Link-Table entries in place and
    migrates Rib-Table rows (so no lock-free snapshot exists), the
    index's own read-write lock — taken inside the index methods and
    :func:`repro.core.batch.batch_find_all` — provides the
    writer-excludes-readers guarantee; the service deliberately takes
    no read locks itself to avoid nesting a non-reentrant lock.

Resilience (see ``docs/serving.md`` § Resilience). Every read-style
call accepts a per-call ``deadline`` (seconds) overriding the service
``default_deadline``; expiry is noticed at cooperative checkpoints in
the traversal and scan loops and surfaces as
:class:`~repro.exceptions.DeadlineExceededError` — never a late or
wrong answer. ``max_concurrent``/``max_queue`` put an
:class:`~repro.resilience.AdmissionController` in front of the reads
(excess load sheds with :class:`~repro.exceptions.OverloadedError`),
``degraded=True`` lets a sharded index answer partially
(:class:`~repro.resilience.PartialResult`) instead of failing the
fan-out, and :meth:`QueryService.close` cancels in-flight work via the
shared shutdown event and returns within ``close_timeout`` even when a
query is stuck on a hung page read.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.exceptions import DeadlineExceededError, ServiceClosedError
from repro.obs import get_registry
from repro.obs.slowlog import get_slow_log
from repro.resilience import (AdmissionController, CancellationToken,
                              Deadline)

__all__ = ["QueryService", "SnapshotGuard"]


class SnapshotGuard:
    """A read view of ``index`` frozen at construction time.

    All queries answer against the prefix of length :attr:`limit`
    (the index length when the guard was taken). See the module
    docstring for why this is consistent without locks on the
    in-memory layers.

    Every index type — the three traversal layers and
    :class:`repro.shard.ShardedSpineIndex` — answers the same verbs
    with ``limit=`` and ``cancel=`` (a
    :class:`~repro.resilience.CancellationToken`), so each method is
    one call to the index's own verb. ``degraded`` is meaningful only
    for a sharded index (a flat index has no shards to lose); whether
    to pass it on is decided once, here, and a flat index never sees
    it.
    """

    __slots__ = ("index", "limit", "_sharded")

    def __init__(self, index, limit=None):
        self.index = index
        self.limit = len(index) if limit is None else min(limit,
                                                          len(index))
        # A sharded index carries a ``degraded`` default to override.
        self._sharded = hasattr(index, "degraded")

    def __len__(self):
        return self.limit

    def _degraded(self, degraded):
        return {"degraded": degraded} if self._sharded else {}

    def contains(self, pattern, cancel=None):
        """``pattern in prefix`` (clean False on foreign characters)."""
        return self.index.contains(pattern, limit=self.limit,
                                   cancel=cancel)

    def find_first(self, pattern, cancel=None):
        """Start of the first occurrence within the snapshot."""
        return self.index.find_first(pattern, limit=self.limit,
                                     cancel=cancel)

    def find_all(self, pattern, cancel=None, degraded=None):
        """Sorted starts of all occurrences within the snapshot."""
        return self.index.find_all(pattern, limit=self.limit,
                                   cancel=cancel,
                                   **self._degraded(degraded))

    def batch_find_all(self, patterns, threads=1, executor=None,
                       cancel=None, degraded=None):
        """Batched multi-pattern query bounded to the snapshot.

        ``executor``, when given, is authoritative: the traversal phase
        runs on it with its own sizing and ``threads`` is ignored.
        ``threads`` only sizes a temporary pool when no executor is
        passed. ``threads < 1`` is rejected either way, and an executor
        that has already been shut down is rejected with
        :class:`~repro.exceptions.ServiceClosedError` before any
        traversal starts.
        """
        return self.index.batch_find_all(
            patterns, threads=threads, limit=self.limit,
            executor=executor, cancel=cancel,
            **self._degraded(degraded))


class QueryService:
    """Thread-pool front end for serving queries over one index.

    Parameters
    ----------
    index:
        Any traversal layer. A disk index is switched into its latched
        buffer-pool mode up front so worker threads can share frames
        safely.
    threads:
        Size of the worker pool used for batch traversal phases.
    stats_port / stats_host:
        When ``stats_port`` is not ``None``, the service owns a
        :class:`~repro.obs.health.StatsServer` bound there (``0`` picks
        an ephemeral port), serving ``/metrics``, ``/healthz`` and
        ``/stats`` over this index until :meth:`close`. The running
        server is exposed as :attr:`stats_server`.
    default_deadline:
        Per-query wall-clock budget in seconds applied when a call
        passes no ``deadline`` of its own; ``None`` (default) leaves
        queries unbounded.
    max_concurrent / max_queue:
        When either is set, reads pass through an
        :class:`~repro.resilience.AdmissionController`:
        ``max_concurrent`` (default: ``threads``) queries run at once,
        ``max_queue`` (default 0) more wait, the rest shed immediately
        with :class:`~repro.exceptions.OverloadedError`. ``None`` for
        both (the default) means no admission gate at all.
    degraded:
        Service-wide default for the sharded degraded mode: ``True``
        turns shard failures into
        :class:`~repro.resilience.PartialResult` answers instead of
        errors. Per-call ``degraded=`` overrides. Ignored for flat
        indexes.
    close_timeout:
        Upper bound in seconds that :meth:`close` waits for in-flight
        queries. Cancellation is cooperative (the shutdown event fires
        every in-flight token at its next checkpoint), so this is a
        backstop for queries stuck inside a single hung I/O call, not
        the expected drain time.

    Use as a context manager, or call :meth:`close` to release the
    pool. The service may outlive many snapshots; each read-style call
    takes a fresh one. Queries slower than the global slow-query-log
    threshold (:func:`repro.obs.slowlog.get_slow_log`, off by default)
    are recorded with their structured context — including
    ``timed_out`` / ``degraded`` tags when resilience kicked in.
    """

    def __init__(self, index, threads=4, stats_port=None,
                 stats_host="127.0.0.1", default_deadline=None,
                 max_concurrent=None, max_queue=None, degraded=False,
                 close_timeout=5.0):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive "
                             "seconds or None")
        if close_timeout < 0:
            raise ValueError("close_timeout must be >= 0")
        self.index = index
        self.threads = threads
        self.default_deadline = default_deadline
        self.degraded = degraded
        self.close_timeout = close_timeout
        self._write_mutex = threading.Lock()
        index.enable_concurrent_reads()
        self._executor = (ThreadPoolExecutor(
            max_workers=threads,
            thread_name_prefix="repro-serve")
            if threads > 1 else None)
        self._closed = False
        self._shutdown = threading.Event()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self.admission = None
        if max_concurrent is not None or max_queue is not None:
            self.admission = AdmissionController(
                max_concurrent if max_concurrent is not None
                else threads,
                max_queue if max_queue is not None else 0)
        self.stats_server = None
        if stats_port is not None:
            # Imported here so the serving core has no HTTP dependency
            # unless a stats endpoint is actually requested.
            from repro.obs.health import StatsServer

            self.stats_server = StatsServer(
                index=index, service=self,
                host=stats_host, port=stats_port)

    # -- reads ---------------------------------------------------------

    def snapshot(self):
        """A :class:`SnapshotGuard` over the index as of now."""
        return SnapshotGuard(self.index)

    def _token(self, deadline, op):
        """The cancellation token for one read call.

        Always carries the service shutdown event (so ``close()`` can
        cancel any in-flight query); carries a
        :class:`~repro.resilience.Deadline` when the call or the
        service configured one.
        """
        budget = deadline if deadline is not None \
            else self.default_deadline
        return CancellationToken(
            Deadline.after(budget) if budget is not None else None,
            self._shutdown, op=op)

    def _enter(self):
        with self._inflight_cond:
            self._inflight += 1
        registry = get_registry()
        if registry.enabled:
            registry.gauge("serve.inflight").set(self._inflight)

    def _exit(self):
        with self._inflight_cond:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_cond.notify_all()
        registry = get_registry()
        if registry.enabled:
            registry.gauge("serve.inflight").set(self._inflight)

    def _read(self, op, deadline, query, describe):
        """Run ``query(snapshot, token)`` on a fresh snapshot through
        admission, slow-logged with ``describe(result)`` (``None`` on a
        deadline).  The clock starts before admission, so queueing
        for a slot counts towards the logged latency."""
        self._check_open()
        token = self._token(deadline, op)
        started = time.perf_counter()
        admitted = (self.admission.admit(token)
                    if self.admission is not None else None)
        admission_wait_s = time.perf_counter() - started
        self._enter()
        slow_log = get_slow_log()
        try:
            result = query(self.snapshot(), token)
        except DeadlineExceededError:
            if slow_log.enabled:
                slow_log.observe(
                    op, time.perf_counter() - started,
                    admission_wait_s=admission_wait_s, timed_out=True,
                    layer=type(self.index).__name__, **describe(None))
            raise
        finally:
            self._exit()
            if admitted is not None:
                admitted.__exit__()
        if slow_log.enabled:
            slow_log.observe(
                op, time.perf_counter() - started,
                admission_wait_s=admission_wait_s,
                layer=type(self.index).__name__, **describe(result))
        return result

    def contains(self, pattern, deadline=None):
        """Membership within a fresh snapshot (deadline-bounded)."""
        def describe(found):
            fields = {"pattern_chars": len(pattern)}
            if found is not None:
                fields["found"] = found
            return fields

        return self._read(
            "contains", deadline,
            lambda snapshot, token: snapshot.contains(pattern,
                                                      cancel=token),
            describe)

    def find_all(self, pattern, deadline=None, degraded=None):
        """All occurrences within a fresh snapshot.

        ``deadline`` (seconds) bounds this call; ``degraded``
        overrides the service default for sharded indexes. A timed-out
        or degraded query is tagged as such in the slow-query log.
        """
        if degraded is None:
            degraded = self.degraded

        def describe(starts):
            fields = {"pattern_chars": len(pattern)}
            if starts is not None:
                fields.update(
                    occurrences=len(starts),
                    degraded=getattr(starts, "complete", True) is False)
            return fields

        return self._read(
            "find_all", deadline,
            lambda snapshot, token: snapshot.find_all(
                pattern, cancel=token, degraded=degraded),
            describe)

    def batch_find_all(self, patterns, deadline=None, degraded=None):
        """Batched query with the traversal phase on the worker pool.

        A ``close()`` racing an in-flight call can tear the worker pool
        out from under the traversal phase; the executor's raw
        ``RuntimeError`` ("cannot schedule new futures after shutdown")
        is translated to :class:`~repro.exceptions.ServiceClosedError`
        so callers see the same structured error as a call made after
        the close completed. ``deadline`` / ``degraded`` behave as in
        :meth:`find_all`.
        """
        if degraded is None:
            degraded = self.degraded

        def query(snapshot, token):
            try:
                return snapshot.batch_find_all(
                    patterns, threads=self.threads,
                    executor=self._executor, cancel=token,
                    degraded=degraded)
            except ServiceClosedError:
                raise
            except RuntimeError as exc:
                if self._closed and "shutdown" in str(exc):
                    raise ServiceClosedError(
                        "QueryService closed during batch_find_all"
                    ) from exc
                raise

        def describe(results):
            if results is None:
                return {}
            return {
                "patterns": len(results),
                "pattern_chars": sum(len(m.pattern) for m in results),
                "occurrences": sum(len(m.starts) for m in results),
                "degraded": any(
                    getattr(m.starts, "complete", True) is False
                    for m in results),
            }

        return self._read("batch_find_all", deadline, query, describe)

    # -- writes --------------------------------------------------------

    def extend(self, text):
        """Append ``text`` to the indexed string.

        Writers are serialized through the service mutex; on the disk
        layer the index's write lock additionally excludes in-flight
        readers, while in-memory readers keep running against their
        snapshots untouched.
        """
        self._check_open()
        with self._write_mutex:
            self.index.extend(text)

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self):
        """True once :meth:`close` has run (drives ``/healthz``)."""
        return self._closed

    @property
    def inflight(self):
        """Read-style calls currently executing."""
        with self._inflight_cond:
            return self._inflight

    def _check_open(self):
        if self._closed:
            raise ServiceClosedError("QueryService is closed")

    def close(self, timeout=None):
        """Shut down within a bounded time (idempotent; index stays
        open).

        Sets the shutdown event — every in-flight query's cancellation
        token notices at its next checkpoint and aborts with
        :class:`~repro.exceptions.ServiceClosedError` — then waits up
        to ``timeout`` (default :attr:`close_timeout`) for in-flight
        calls to drain, and finally tears the pool down with
        ``cancel_futures=True`` so queued-but-unstarted traversals are
        dropped rather than waited for. A query stuck inside a single
        hung I/O call cannot be cancelled cooperatively; after the
        timeout it is abandoned to finish (and fail its token's next
        poll) in the background rather than holding ``close()``
        hostage.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown.set()
        timeout = self.close_timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        with self._inflight_cond:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(min(remaining, 0.05))
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self.stats_server is not None:
            self.stats_server.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
