"""Batched multi-pattern querying (paper Section 4, batched form).

``find_all`` pays one downstream backbone scan *per pattern*. The paper
observes that the scan can be deferred: resolve the first occurrence of
every pattern by traversal, then find all remaining occurrences of all
patterns in "one single final sequential scan". The
:class:`~repro.core.search.OccurrenceScanner` implements that shared
scan; this module is the engine that drives it for a whole batch:

1. **traversal phase** — the N root-to-node first-occurrence
   traversals (independent; optionally spread over a thread pool);
2. **resolution phase** — one shared scan over the backbone link
   entries, visiting each node once no matter how many patterns hit.

On the disk layer the difference is architectural, not cosmetic: N
looped ``find_all`` calls make N passes over the Link Table, while a
batch makes exactly one sequential LT sweep — the access pattern the
paper's Figure 8 buffering argument favors.

The engine runs on every layer of the layer protocol (``docs/api.md``):
:class:`~repro.core.index.SpineIndex`,
:class:`~repro.core.packed.PackedSpineIndex` and
:class:`~repro.disk.spine_disk.DiskSpineIndex` (the sharded index fans
a batch out to its shards). Both phases run under the layer's
``read_locked()``; a disk index is switched to its latched buffer-pool
mode (``enable_concurrent_reads``) before a multi-threaded traversal
phase.

Snapshot semantics (Section 2.7): every batch captures ``len(index)``
on entry and bounds the traversals and the scan to that prefix. Because
a SPINE prefix is an exact sub-index — every edge created after
character ``k`` has a destination beyond ``k`` — rejecting steps that
land past the snapshot boundary answers the query against the index
*as of batch start*, even while an in-memory ``extend`` appends
concurrently.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.core import search
from repro.exceptions import SearchError, ServiceClosedError
from repro.obs import query_scope

__all__ = [
    "BatchMatch",
    "batch_find_all",
    "check_executor_open",
]


class BatchMatch:
    """One pattern's outcome within a batch.

    Attributes
    ----------
    pattern:
        The query pattern, as submitted.
    starts:
        Sorted 0-indexed occurrence starts (empty on any miss).
    status:
        ``"hit"``, ``"miss"`` (valid pattern, no occurrence) or
        ``"alphabet-miss"`` (a character outside the index alphabet —
        such a pattern cannot occur, reported cleanly instead of
        raising).
    """

    __slots__ = ("pattern", "starts", "status")

    def __init__(self, pattern, starts, status):
        self.pattern = pattern
        self.starts = starts
        self.status = status

    @property
    def found(self):
        """True iff the pattern occurs at least once."""
        return self.status == "hit"

    def __len__(self):
        return len(self.starts)

    def __repr__(self):
        return (f"BatchMatch({self.pattern!r}, {self.status}, "
                f"{len(self.starts)} occurrence(s))")


def check_executor_open(executor):
    """Reject an already-shut-down executor with a structured error.

    A ``ThreadPoolExecutor`` that has been ``shutdown()`` raises a raw
    ``RuntimeError`` only when the first traversal is submitted —
    mid-batch, from inside ``map``. Checking up front turns that into
    :class:`~repro.exceptions.ServiceClosedError` before any work
    starts. Non-stdlib executors without a ``_shutdown`` flag pass
    through unchecked (their first submit will still error, and the
    serving layer translates that too).
    """
    if executor is not None and getattr(executor, "_shutdown", False):
        raise ServiceClosedError(
            "executor is shut down; batch_find_all needs a live "
            "executor (or pass none to use a temporary pool)")


def batch_find_all(index, patterns, threads=1, limit=None,
                   executor=None, cancel=None):
    """Resolve every pattern's occurrences with one shared backbone
    scan.

    Parameters
    ----------
    index:
        Any of the three traversal layers (in-memory, packed, disk).
    patterns:
        Iterable of pattern strings; duplicates are traversed and
        resolved once and share their occurrence list. Empty patterns
        are rejected (:class:`SearchError`), exactly like ``find_all``.
    threads:
        Worker threads for the traversal phase (the resolution phase is
        inherently one sequential pass). Must be ``>= 1``. Only sizes
        the temporary pool created when no ``executor`` is passed. On a
        disk index, a concurrent traversal phase switches the buffer
        pool into its latched, pinning mode first.
    limit:
        Snapshot bound: answer against the prefix of this length
        (defaults to ``len(index)`` at entry — which *is* the snapshot
        guard when a writer extends the in-memory index concurrently).
    executor:
        An existing ``ThreadPoolExecutor`` to run traversals on (the
        serving layer passes its long-lived pool). When given it is
        authoritative: traversals run on it with *its* sizing whenever
        there is more than one unique pattern, and ``threads`` is
        ignored. When ``None``, ``threads > 1`` creates a temporary
        pool of exactly that size. An executor that has already been
        shut down is rejected up front with
        :class:`~repro.exceptions.ServiceClosedError`.
    cancel:
        Optional :class:`~repro.resilience.CancellationToken` checked
        at the batch checkpoints (entry, each traversal step, the
        shared scan in bounded chunks). On expiry the batch raises
        :class:`~repro.exceptions.DeadlineExceededError` — partial
        traversal work is discarded, never returned as a wrong answer.

    Returns
    -------
    list[BatchMatch]
        Aligned with ``patterns`` order.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    check_executor_open(executor)
    if cancel is not None:
        cancel.poll()
    patterns = list(patterns)
    with query_scope("batch.find_all", latency="batch",
                     patterns=len(patterns)) as scope:
        n = len(index)
        if limit is not None:
            n = min(limit, n)
        order, uid_codes = _encode(index, patterns)
        multithreaded = ((executor is not None or threads > 1)
                         and len(uid_codes) > 1)
        if multithreaded:
            # Must happen before we hold the read lock: the transition
            # briefly takes the pool's write lock.
            index.enable_concurrent_reads()

        def _traverse(codes):
            # One child token per traversal: the amortization counter
            # is not thread-safe, so workers must not share one.
            return search.find_first_end(
                index, codes, n,
                None if cancel is None else cancel.child())[0]

        with index.read_locked():
            # Phase 1: first-occurrence traversals.
            if multithreaded:
                if executor is not None:
                    ends = list(executor.map(_traverse, uid_codes))
                else:
                    with ThreadPoolExecutor(max_workers=threads) as pool:
                        ends = list(pool.map(_traverse, uid_codes))
            else:
                ends = [_traverse(codes) for codes in uid_codes]

            # Phase 2: the single shared downstream scan (Section 4).
            scanner = search.OccurrenceScanner(index)
            pids = {}
            for uid, (codes, end) in enumerate(zip(uid_codes, ends)):
                if end is not None:
                    pids[uid] = scanner.add(end, len(codes))
            starts_by_pid = scanner.resolve_starts(limit=n, cancel=cancel)

        results = []
        hits = misses = 0
        occurrences = 0
        for pattern, uid in zip(patterns, order):
            if uid is None:
                results.append(BatchMatch(pattern, [], "alphabet-miss"))
                misses += 1
            elif uid not in pids:
                results.append(BatchMatch(pattern, [], "miss"))
                misses += 1
            else:
                starts = list(starts_by_pid[pids[uid]])
                occurrences += len(starts)
                results.append(BatchMatch(pattern, starts, "hit"))
                hits += 1

        metrics = scope.metrics
        if metrics is not None:
            metrics.counter("batch.batches").inc()
            metrics.counter("batch.patterns").inc(len(patterns))
            metrics.counter("batch.unique_patterns").inc(len(uid_codes))
            metrics.counter("batch.hits").inc(hits)
            metrics.counter("batch.misses").inc(misses)
            metrics.counter("batch.occurrences").inc(occurrences)
            metrics.counter("batch.scan_nodes").inc(
                scanner.last_scan_nodes)
            metrics.histogram("batch.size").observe(len(patterns))
        scope.close("done", hits=hits, misses=misses,
                    occurrences=occurrences,
                    scan_nodes=scanner.last_scan_nodes,
                    unique_patterns=len(uid_codes), snapshot=n)
    return results


def _encode(index, patterns):
    """Encode ``patterns`` once each, deduplicated by code sequence
    (case-insensitive alphabets fold here for free): ``(order,
    uid_codes)``, where ``order`` holds each pattern's unique id, or
    ``None`` on an alphabet miss, and ``uid_codes`` each id's codes."""
    try_encode = index.alphabet.try_encode
    unique = {}      # codes tuple -> uid
    uid_codes = []   # uid -> codes list
    order = []
    for pattern in patterns:
        if pattern == "":
            raise SearchError(
                "find_all of the empty pattern is ill-defined")
        codes = try_encode(pattern)
        if codes is None:
            order.append(None)
            continue
        key = tuple(codes)
        uid = unique.get(key)
        if uid is None:
            uid = unique[key] = len(uid_codes)
            uid_codes.append(codes)
        order.append(uid)
    return order, uid_codes
