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
single-pattern :func:`find_all` is one registration with it. Its window
loop (:func:`link_scan`) is the only link-scan loop; a layer merely
decodes a window's candidates (``link_candidates``).

Every verb here serves all three traversal layers — the reference
:class:`~repro.core.index.SpineIndex`, the packed layout and the
page-resident disk index — through the narrow layer protocol of
``docs/api.md`` ("Layer protocol"). The edge rule is written once, in
the engine's one :func:`walk`, which traversal, matching statistics
and the cursors all run. Metric and span names carry the layer's
``NAME_PREFIX`` (``""``, ``"packed."``, ``"disk."``). Every verb
takes an optional snapshot ``limit`` — answer against the prefix of
that length (Section 2.7) — and an optional
:class:`~repro.resilience.CancellationToken` ``cancel``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SearchError
from repro.obs import active_span, query_scope

#: Backbone positions per link-scan window (the disk layer rounds it
#: down to whole LT pages): :func:`link_scan` decides this many per
#: pointer-doubling closure and, when cancellable, polls once per
#: window. It bounds the scan's temporaries whatever the range; on a
#: 200k-char index a full sweep is as fast as with 32k windows, which
#: raised peak RSS by ~1 MiB more. A window that no target can reach
#: costs one array pass (:func:`reaching_entries`).
SCAN_WINDOW = 1 << 14

#: Accepted occurrences per extra cancellation poll, so a window dense
#: with matches does not run to its end past a deadline.
POLL_HITS = 1024


def walk(index, codes, node=0, length=0, limit=None, cancel=None,
         record=None):
    """The engine's one walk (Section 4): consume ``codes`` from
    ``node``, where a valid path of ``length`` characters ends.

    Vertebras are consumed a run at a time (``vertebra_run``). Where the
    vertebra does not carry the next code the edge rule applies: a rib
    with ``pathlength <= PT``, else the first element of its extrib
    chain with ``PT >= pathlength``. ``cancel`` is checkpointed once per
    run or edge. When tracing is on, the calling thread's active span
    collects every edge decision (:mod:`repro.obs.trace`). The caller
    holds the layer's read lock.

    Traversal (``record`` is ``None``): a missing edge, or a step
    landing beyond ``limit`` (default: the whole index), is a dead end —
    by Section 2.7 that edge does not exist in the prefix sub-index, and
    a run crossing ``limit`` dies on the vertebra into node ``limit +
    1``. Matching statistics (``record`` a ``(lengths, end_nodes)`` pair
    of lists, extended with every position's statistic): where the edge
    fails, the longest suffix of the match that extends is the last rib
    or extrib the rule rejected, when its PT covers the LEL of the
    node's link; otherwise the walk hops the link — one hop disposes of
    every suffix length between that LEL and the match length (Section
    4.1) — and tries again. A code absent from the data string resets
    the match to the root.

    Returns ``(node, length, checks, link_hops)``: the end node (``None``
    at a traversal dead end), the match length there, the suffix sets
    checked — one per vertebra taken and per node at which an edge was
    tried, Table 6's count; on a traversal exactly the codes consumed,
    the failed one included — and the link hops taken.
    """
    span = active_span()
    n = len(index)
    if limit is None or limit > n:
        limit = n
    vertebra_run = index.vertebra_run
    rib_at = index.rib
    extrib_chain = index.extrib_chain
    link = index.link
    checkpoint = None if cancel is None else cancel.checkpoint
    fallback = record is not None
    if fallback:
        lengths, end_nodes = record
    checks = link_hops = 0
    m = len(codes)
    i = 0
    while i < m:
        if checkpoint is not None:
            checkpoint()
        run = vertebra_run(node, codes, i)
        if run:
            if node + run > limit:
                run = limit + 1 - node
            if span is not None:
                span.vertebra(node, run)
            if fallback:
                lengths.extend(range(length + 1, length + run + 1))
                end_nodes.extend(range(node + 1, node + run + 1))
            node += run
            length += run
            checks += run
            i += run
            if i == m or node > limit:
                break
        code = codes[i]
        i += 1
        while True:
            checks += 1
            rejected = rib = rib_at(node, code)
            if rib is None:
                if span is not None:
                    span.event("no-edge", node=node, code=code,
                               pathlength=length)
            else:
                dest, pt = rib
                if span is not None:
                    span.event("enter-rib", node=node, code=code,
                               dest=dest, pt=pt, pathlength=length)
                if length <= pt:
                    if span is not None:
                        span.event("pt-accept", node=node, pt=pt,
                                   pathlength=length, dest=dest)
                    node = dest
                    length += 1
                    break
                if span is not None:
                    span.event("pt-reject", node=node, pt=pt,
                               pathlength=length)
                for dest, pt in extrib_chain(node, code):
                    if span is not None:
                        span.event("extrib-fallthrough", node=node, pt=pt,
                                   pathlength=length, dest=dest,
                                   taken=pt >= length)
                    if pt >= length:
                        break
                    rejected = dest, pt
                else:
                    dest = None
                    if span is not None:
                        span.event("no-edge", node=node, code=code,
                                   pathlength=length, exhausted="extribs")
                if dest is not None:
                    node = dest
                    length += 1
                    break
            if not fallback:
                node = None
                break
            if node == 0:
                # No edge at the root: the code is absent from the data.
                length = 0
                break
            dest, lel = link(node)
            if rejected is not None and rejected[1] >= lel:
                dest, pt = rejected
                if span is not None:
                    span.event("pt-accept", node=node, pt=pt, pathlength=pt,
                               dest=dest, shortened=True)
                node = dest
                length = pt + 1
                break
            if span is not None:
                span.event("link-hop", src=node, dest=dest, lel=lel,
                           pathlength=length)
            node = dest
            length = lel
            link_hops += 1
            if vertebra_run(node, (code,), 0):
                checks += 1
                if span is not None:
                    span.vertebra(node)
                node += 1
                length += 1
                break
        if node is None or node > limit:
            break
        if fallback:
            lengths.append(length)
            end_nodes.append(node)
    if node is not None and node > limit:
        node = None
    return node, length, checks, link_hops


def step(index, node, pathlength, code):
    """One forward move of a valid path: from ``node`` after having
    matched ``pathlength`` characters, consume ``code`` — a one-code
    :func:`walk`. Returns the destination node, or ``None`` when no
    valid edge exists (Section 4).

    On the paper's ``aaccacaaca``, ``accaa`` dies at node 5, whose rib
    for ``a`` has PT 2 < pathlength 4, while ``acaa`` takes the extrib
    with PT 2 out of node 3:

    >>> from repro.core import SpineIndex
    >>> idx = SpineIndex("aaccacaaca")
    >>> a = idx.alphabet.encode_char("a")
    >>> step(idx, 5, 4, a) is None
    True
    >>> step(idx, 3, 2, a)
    7
    """
    return walk(index, (code,), node, pathlength)[0]


def find_first_end(index, codes, limit=None, cancel=None):
    """``(end node, steps)`` of the first occurrence of ``codes``
    within the prefix of length ``limit`` (default: the whole index);
    the end node is ``None`` when it does not occur there.

    ``codes`` is a sequence of alphabet codes; the empty sequence ends
    at the root (node 0). One traversal :func:`walk` from the root;
    ``cancel`` is checkpointed once per run or edge (an amortized
    integer decrement — see :mod:`repro.resilience.deadline`). ``steps``
    counts the codes consumed, the failed one included.
    """
    node, _, steps, _ = walk(index, codes, limit=limit, cancel=cancel)
    return node, steps


def _lookup(verb, index, pattern, limit, cancel, scan):
    """The instrumented core of the point-query verbs.

    Encodes ``pattern``, traverses to its first occurrence and, with
    ``scan``, resolves every occurrence by the link scan — all under
    the layer's read lock. Returns ``(m, ends)``: the pattern length in
    codes and the ascending end nodes (empty on a miss; a pattern with
    a character outside the alphabet cannot occur and is a clean
    miss). Metrics and the trace span are emitted here, once, for
    every layer, under the span and latency name ``verb`` (e.g.
    ``search.find_all``) behind the layer's prefix.
    """
    prefix = index.NAME_PREFIX
    name = prefix + verb
    ends = []
    scan_nodes = None
    with query_scope(name, latency=name, pattern=pattern) as scope:
        metrics = scope.metrics
        codes = index.alphabet.try_encode(pattern)
        if codes is not None:
            with index.read_locked():
                first_end, steps = find_first_end(index, codes, limit,
                                                  cancel)
                if metrics is not None:
                    metrics.counter(prefix + "search.steps").inc(steps)
                if first_end is not None and not scan:
                    ends = [first_end]
                elif first_end is not None:
                    scanner = OccurrenceScanner(index)
                    pid = scanner.add(first_end, len(codes))
                    ends = scanner.resolve(limit, cancel)[pid]
                    scan_nodes = scanner.last_scan_nodes
        if metrics is not None:
            metrics.counter(prefix + "search.queries").inc()
            if not ends:
                metrics.counter(prefix + "search.misses").inc()
            elif scan_nodes is not None:
                metrics.counter(prefix + "search.occurrences").inc(
                    len(ends))
                # The downstream scan walks the backbone from the first
                # match's end to the tail (Section 4's link-scan).
                metrics.counter(prefix + "search.scan_nodes").inc(
                    scan_nodes)
                metrics.histogram(prefix + "search.scan_length").observe(
                    scan_nodes)
        if scope.span is not None:
            attrs = {}
            if codes is None:
                attrs["alphabet_miss"] = True
            if ends:
                attrs["end_node"] = ends[0]
            if scan_nodes is not None:
                attrs["occurrences"] = len(ends)
                attrs["scan_nodes"] = scan_nodes
            scope.close("hit" if ends else "miss", **attrs)
    return (0 if codes is None else len(codes)), ends


def contains(index, pattern, limit=None, cancel=None):
    """True iff ``pattern`` is a substring of the indexed string (of
    its length-``limit`` prefix). The empty pattern always is."""
    if pattern == "":
        return True
    return bool(_lookup("search.contains", index, pattern, limit, cancel,
                        False)[1])


def find_first(index, pattern, limit=None, cancel=None):
    """0-indexed start of the first occurrence of ``pattern``.

    Returns ``None`` when the pattern does not occur. The empty pattern
    trivially occurs at position 0.
    """
    m, ends = _lookup("search.find_first", index, pattern, limit, cancel,
                      False)
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
    m, ends = _lookup("search.find_all", index, pattern, limit, cancel,
                      True)
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

    The scan reads link entries through the layer's ``link_candidates``
    (:func:`link_scan`), so one scanner serves all three traversal
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

    def resolve(self, limit=None, cancel=None):
        """Run the shared scan; returns ``{pid: [end nodes ascending]}``.

        ``limit`` bounds the scan to backbone nodes ``<= limit`` — the
        snapshot prefix of Section 2.7; defaults to the whole index.
        ``cancel`` is an optional
        :class:`~repro.resilience.CancellationToken`, polled before
        every scan window and after every :data:`POLL_HITS` accepted
        occurrences. The targets live in a bitmap over the scanned
        span: the first ends up front, each node as it is accepted.
        """
        index = self.index
        n = len(index) if limit is None else min(limit, len(index))
        results = {pid: [first_end]
                   for pid, (first_end, _) in self._patterns.items()}
        self.last_scan_nodes = 0
        if not self._patterns:
            return results
        # node -> list of (pid, length) target entries living there.
        node_targets = {}
        min_start = n + 1
        min_length = None
        for pid, (first_end, length) in self._patterns.items():
            node_targets.setdefault(first_end, []).append((pid, length))
            min_start = min(min_start, first_end)
            if min_length is None or length < min_length:
                min_length = length
        self.last_scan_nodes = max(0, n - min_start)
        if min_start >= n:
            return results
        # Byte k is set iff node base + k is a target. Node base lies
        # below every first end, so it never is one, and every link
        # destination below it reads that byte.
        base = min_start - 1
        bitmap = bytearray(n + 1 - base)
        for end in node_targets:
            if end <= n:
                bitmap[end - base] = 1
        accepted = 0
        # Nodes with LEL below every registered length can never end an
        # occurrence, so the layers leave them out of the candidates.
        for j, dest, lel in link_scan(index, min_start, n, min_length,
                                      bitmap, base, cancel=cancel):
            hits = [(pid, length) for pid, length in node_targets[dest]
                    if lel >= length]
            if hits:
                bitmap[j - base] = 1
                node_targets.setdefault(j, []).extend(hits)
                for pid, _ in hits:
                    results[pid].append(j)
                accepted += 1
                if cancel is not None and not accepted % POLL_HITS:
                    cancel.poll()
        return results

    def resolve_starts(self, limit=None, cancel=None):
        """Like :meth:`resolve` but mapping to 0-indexed start lists."""
        ends = self.resolve(limit=limit, cancel=cancel)
        return {
            pid: [e - self._patterns[pid][1] for e in end_list]
            for pid, end_list in ends.items()
        }


def link_scan(index, lo, hi, min_lel, bitmap, base, cancel=None):
    """The downstream link scan's window loop — the only one, for every
    layer.

    Yields ``(j, dest, LEL)`` for the nodes ``lo < j <= hi`` (``hi``
    clipped to the index length when the scan starts) whose LEL is at
    least ``min_lel`` and whose ``dest`` is a target when ``j`` is
    reached, in ascending order. ``bitmap`` (a ``bytearray`` over nodes
    ``base .. hi``, ``base < lo``) marks the targets, byte ``k`` for
    node ``base + k``; byte 0 stays clear. The caller may set bytes
    between yields, but only those of nodes already yielded.

    Windows hold the layer's ``scan_stride`` positions from ``lo + 1``
    on; on a layer whose ``scan_aligned`` is set they end on multiples
    of the stride instead (whole LT pages on disk, so no page is looked
    up twice). The layer decodes a window (``link_candidates``) and
    :func:`reaching_entries` decides it. ``cancel`` is polled before
    every window.
    """
    stride = index.scan_stride
    aligned = index.scan_aligned
    hi = min(hi, len(index))
    link_candidates = index.link_candidates
    start = lo + 1
    while start <= hi:
        if cancel is not None:
            cancel.poll()
        stop = min((start // stride + 1) * stride if aligned
                   else start + stride, hi + 1)
        columns = link_candidates(start, stop, min_lel)
        if columns is not None:
            yield from reaching_entries(*columns, bitmap, base)
        start = stop


def reaching_entries(cand, dest, lel, bitmap, base):
    """The vectorized form of the per-entry scan rule: one window of
    :func:`link_scan`.

    ``cand`` holds ascending node ids whose LEL already passed the
    floor, ``dest`` and ``lel`` their link destinations and LELs (int
    arrays aligned with ``cand``); ``bitmap`` and ``base`` are the
    target bitmap of :func:`link_scan`. Yields ``(j, dest, LEL)`` for
    each candidate whose ``dest`` is a target when it is reached in
    ascending order — exactly the per-entry scan of ``cand``, while the
    caller sets target bytes between yields for yielded nodes only.

    Membership is one gather from the bitmap. A window in which no
    ``dest`` is a target yet returns after it: targets grow only by
    yielded nodes, so such a window can never yield.

    Links point upstream, so a candidate can only be accepted if its
    link chain through ``cand`` reaches a current target. Pointer
    doubling finds those candidates first — each round ORs in the flag
    of the entry a chain pointer names and doubles the pointer,
    O(|cand| log depth) in all — and Python re-tests the bitmap over
    that superset alone.
    """
    # Destinations below base clip to byte 0, which is never set.
    reach = np.frombuffer(bitmap, dtype=np.bool_).take(dest - base,
                                                       mode="clip")
    if not reach.any():
        return
    # parent[i]: position in cand of dest[i], or -1, read from a dense
    # map of the window's span. dest[i] < cand[i], so parent[i] < i
    # and every chain ends.
    first = int(cand[0])
    where = np.full(int(cand[-1]) + 1 - first, -1, dtype=np.intp)
    where[cand - first] = np.arange(cand.size)
    parent = where.take(dest - first, mode="clip")
    parent[dest < first] = -1
    live = ((parent >= 0) & ~reach).nonzero()[0]
    while live.size:
        up = parent[live]
        reach[live] |= reach[up]
        parent[live] = parent[up]
        live = live[(parent[live] >= 0) & ~reach[live]]
    hits = reach.nonzero()[0]
    for j, d, length in zip(cand[hits].tolist(), dest[hits].tolist(),
                            lel[hits].tolist()):
        if bitmap[d - base]:
            yield j, d, length


#: True iff a valid path for the pattern exists — by the paper's
#: correctness theorem exactly when it is a substring of the data
#: string (no false positives, Section 2.1), so this is :func:`contains`.
is_valid_path = contains
