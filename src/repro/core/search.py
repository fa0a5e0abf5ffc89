"""The SPINE query engine (paper Section 4).

Finding the *first* occurrence of a pattern is a single root-to-node
traversal obeying the PT/PRT edge constraints. Finding *all* occurrences
exploits the link property — a link ``(d, v)`` at node ``j`` certifies
that the ``v`` characters before ``j`` equal the ``v`` characters before
``d`` — with one downstream scan of the backbone collecting every node
whose link lands in the growing target set with sufficient LEL.

The paper defers the downstream scan and resolves *all* patterns found
during a matching run in one shared sequential pass;
:class:`OccurrenceScanner` implements that batched form, and a
single-pattern :func:`find_all` is one registration with it.

Every verb here serves all three traversal layers — the reference
:class:`~repro.core.index.SpineIndex`, the packed layout and the
page-resident disk index — through the narrow layer protocol of
``docs/api.md`` ("Layer protocol"). Metric and span names carry the
layer's ``NAME_PREFIX`` (``""``, ``"packed."``, ``"disk."``). Every verb
takes an optional snapshot ``limit`` — answer against the prefix of
that length (Section 2.7) — and an optional
:class:`~repro.resilience.CancellationToken` ``cancel``.
"""

from __future__ import annotations

import time

from repro.exceptions import SearchError
from repro.obs import get_registry
from repro.obs.trace import get_tracer


def find_first_end(index, codes, limit=None, cancel=None, span=None,
                   metrics=None):
    """End node of the first occurrence of ``codes`` within the prefix
    of length ``limit`` (default: the whole index), or ``None``.

    ``codes`` is a sequence of alphabet codes; the empty sequence ends
    at the root (node 0). A step landing beyond ``limit`` is a dead
    end: by Section 2.7 that edge does not exist in the prefix
    sub-index (edges planted after character ``limit`` always point
    past it). ``cancel`` is checkpointed once per step (an amortized
    integer decrement — see :mod:`repro.resilience.deadline`). ``span``
    is an active trace span collecting every edge decision
    (:mod:`repro.obs.trace`); ``metrics`` is an enabled registry that
    receives one bulk ``search.steps`` update per call, never one per
    character.
    """
    if limit is None:
        limit = len(index)
    step = index.step
    checkpoint = None if cancel is None else cancel.checkpoint
    node = 0
    steps = len(codes)
    for pathlength, code in enumerate(codes):
        if checkpoint is not None:
            checkpoint()
        node = step(node, pathlength, code, span)
        if node is None or node > limit:
            node = None
            steps = pathlength + 1
            break
    if metrics is not None:
        metrics.counter(index.NAME_PREFIX + "search.steps").inc(steps)
    return node


def _lookup(verb, index, pattern, limit, cancel, scan):
    """The instrumented core of the point-query verbs.

    Encodes ``pattern``, traverses to its first occurrence and, with
    ``scan``, resolves every occurrence by the link scan — all under
    the layer's read lock. Returns ``(m, ends)``: the pattern length in
    codes and the ascending end nodes (empty on a miss; a pattern with
    a character outside the alphabet cannot occur and is a clean
    miss). Metrics and the trace span are emitted here, once, for
    every layer.
    """
    prefix = index.NAME_PREFIX
    registry = get_registry()
    metrics = registry if registry.enabled else None
    tracer = get_tracer()
    span = (tracer.begin(prefix + "search." + verb, pattern=pattern)
            if tracer.enabled else None)
    if metrics is not None:
        started = time.perf_counter()
    codes = index.alphabet.try_encode(pattern)
    ends = []
    scan_nodes = None
    if codes is not None:
        try:
            with index.read_locked():
                first_end = find_first_end(index, codes, limit, cancel,
                                           span, metrics)
                if first_end is not None and not scan:
                    ends = [first_end]
                elif first_end is not None:
                    scanner = OccurrenceScanner(index)
                    pid = scanner.add(first_end, len(codes))
                    ends = scanner.resolve(limit, cancel)[pid]
                    scan_nodes = scanner.last_scan_nodes
        except BaseException as exc:
            if span is not None:
                tracer.finish(span, status="error",
                              error=type(exc).__name__)
            raise
    if metrics is not None:
        metrics.counter(prefix + "search.queries").inc()
        if not ends:
            metrics.counter(prefix + "search.misses").inc()
        elif scan_nodes is not None:
            metrics.counter(prefix + "search.occurrences").inc(len(ends))
            # The downstream scan walks the backbone from the first
            # match's end to the tail (Section 4's link-scan).
            metrics.counter(prefix + "search.scan_nodes").inc(scan_nodes)
            metrics.histogram(prefix + "search.scan_length").observe(
                scan_nodes)
        metrics.observe_latency(prefix + "search." + verb,
                                time.perf_counter() - started)
    if span is not None:
        attrs = {}
        if codes is None:
            attrs["alphabet_miss"] = True
        if ends:
            attrs["end_node"] = ends[0]
        if scan_nodes is not None:
            attrs["occurrences"] = len(ends)
            attrs["scan_nodes"] = scan_nodes
        tracer.finish(span, status="hit" if ends else "miss", **attrs)
    return (0 if codes is None else len(codes)), ends


def contains(index, pattern, limit=None, cancel=None):
    """True iff ``pattern`` is a substring of the indexed string (of
    its length-``limit`` prefix). The empty pattern always is."""
    if pattern == "":
        return True
    return bool(_lookup("contains", index, pattern, limit, cancel,
                        False)[1])


def find_first(index, pattern, limit=None, cancel=None):
    """0-indexed start of the first occurrence of ``pattern``.

    Returns ``None`` when the pattern does not occur. The empty pattern
    trivially occurs at position 0.
    """
    m, ends = _lookup("find_first", index, pattern, limit, cancel, False)
    return ends[0] - m if ends else None


def find_all(index, pattern, limit=None, cancel=None):
    """Sorted 0-indexed starts of all occurrences of ``pattern``.

    First occurrence by traversal, remaining occurrences by the
    link-scan of Section 4: walk downstream from the first match's end
    node; node ``j`` ends another occurrence exactly when its link
    destination is already in the target set and its LEL is at least the
    pattern length.
    """
    if pattern == "":
        raise SearchError("find_all of the empty pattern is ill-defined")
    m, ends = _lookup("find_all", index, pattern, limit, cancel, True)
    return [end - m for end in ends]


def count(index, pattern, limit=None, cancel=None):
    """Number of (possibly overlapping) occurrences of ``pattern``.

    Shares :func:`find_all`'s semantics exactly — including the
    :class:`~repro.exceptions.SearchError` on the empty pattern and the
    clean 0 for unencodable patterns.
    """
    return len(find_all(index, pattern, limit, cancel))


class OccurrenceScanner:
    """Batched all-occurrence resolution with one backbone scan.

    Register any number of first-occurrence hits with :meth:`add`, then
    call :meth:`resolve` once; the scan visits each backbone node a
    single time regardless of how many patterns were registered — the
    paper's "one single final sequential scan" (Section 4).

    The scan consumes link entries through the layer's
    ``iter_link_entries``, so one scanner serves all three traversal
    layers — on the disk layer the shared pass is exactly one
    sequential Link-Table sweep. The caller holds the layer's read
    lock around :meth:`resolve`.
    """

    def __init__(self, index):
        self.index = index
        # pattern id -> (first_end, length)
        self._patterns = {}
        self._next_id = 0
        #: Backbone nodes the most recent :meth:`resolve` walked over
        #: (``n - min(first ends)``; 0 before any resolve or when no
        #: pattern was registered).
        self.last_scan_nodes = 0

    def add(self, first_end, length):
        """Register a found pattern; returns its id for :meth:`resolve`."""
        if length <= 0:
            raise SearchError("pattern length must be positive")
        if not 1 <= first_end <= len(self.index):
            raise SearchError(f"end node {first_end} out of range")
        if length > first_end:
            # A pattern of length m ending at node e starts at e - m;
            # m > e would place it before the string's first character.
            raise SearchError(
                f"pattern of length {length} cannot end at node "
                f"{first_end}")
        pid = self._next_id
        self._next_id += 1
        self._patterns[pid] = (first_end, length)
        return pid

    #: Backbone positions swept between cancellation polls. Large
    #: enough that the per-window generator setup + ``poll`` cost
    #: vanishes against the sweep itself, small enough that a deadline
    #: is noticed within a fraction of a millisecond of scan work.
    CANCEL_CHUNK = 4096

    def resolve(self, limit=None, cancel=None):
        """Run the shared scan; returns ``{pid: [end nodes ascending]}``.

        ``limit`` bounds the scan to backbone nodes ``<= limit`` — the
        snapshot prefix of Section 2.7; defaults to the whole index.
        ``cancel`` is an optional
        :class:`~repro.resilience.CancellationToken`: the sweep then
        runs in :data:`CANCEL_CHUNK`-position windows (separate
        ``iter_link_entries`` ranges) with one poll between windows,
        so even a backbone-length scan is cancelled promptly while the
        window interior stays the tight loop at its per-entry cost.
        """
        index = self.index
        n = len(index) if limit is None else min(limit, len(index))
        results = {pid: [first_end]
                   for pid, (first_end, _) in self._patterns.items()}
        self.last_scan_nodes = 0
        if not self._patterns:
            return results
        # node -> list of (pid, length) target entries living there;
        # its keys are the target set the layer filters entries by.
        node_targets = {}
        min_start = n + 1
        min_length = None
        for pid, (first_end, length) in self._patterns.items():
            node_targets.setdefault(first_end, []).append((pid, length))
            min_start = min(min_start, first_end)
            if min_length is None or length < min_length:
                min_length = length
        self.last_scan_nodes = max(0, n - min_start)
        # Nodes with LEL below every registered length can never end an
        # occurrence, so the layers skip them while sweeping.
        window = n if cancel is None else self.CANCEL_CHUNK
        lo = min_start
        while lo < n:
            if cancel is not None:
                cancel.poll()
            hi = min(lo + window, n)
            for j, dest, lel in index.iter_link_entries(
                    lo, hi, min_length, node_targets):
                hits = [(pid, length) for pid, length in node_targets[dest]
                        if lel >= length]
                if hits:
                    node_targets.setdefault(j, []).extend(hits)
                    for pid, _ in hits:
                        results[pid].append(j)
            lo = hi
        return results

    def resolve_starts(self, limit=None, cancel=None):
        """Like :meth:`resolve` but mapping to 0-indexed start lists."""
        ends = self.resolve(limit=limit, cancel=cancel)
        return {
            pid: [e - self._patterns[pid][1] for e in end_list]
            for pid, end_list in ends.items()
        }


def trace_path(index, pattern):
    """The node sequence of the valid path spelling ``pattern``.

    Returns the list of visited nodes starting at the root, or ``None``
    if the pattern has no valid path (i.e. is not a substring). Useful
    for debugging and for the paper's Figure 3 walk-throughs.
    """
    codes = index.alphabet.encode(pattern)
    node = 0
    nodes = [0]
    for pathlength, code in enumerate(codes):
        node = index.step(node, pathlength, code)
        if node is None:
            return None
        nodes.append(node)
    return nodes


#: True iff a valid path for the pattern exists — by the paper's
#: correctness theorem exactly when it is a substring of the data
#: string (no false positives, Section 2.1), so this is :func:`contains`.
is_valid_path = contains
