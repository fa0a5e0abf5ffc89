"""Matching statistics and maximal matching substrings over SPINE.

This is the paper's complex search operation (Section 4): stream a query
string through the index of the data string; whenever the match cannot be
extended, report the matched substring (if long enough) and fall back to
the longest extendable shorter suffix. SPINE reaches the shorter suffixes
through its link chain, and — crucially — each link hop disposes of a
whole *set* of suffixes at once (all lengths between the destination's
LEL and the current match length terminate at the current node), which is
why SPINE checks far fewer suffixes than a suffix tree (Section 4.1,
Table 6). The per-hop work is instrumented so the Table 6 comparison can
be regenerated.

Fallback handling is slightly richer than a bare link hop: suffix lengths
between ``LEL(cur)`` and the current length all terminate at ``cur``, so
their extensions, when they exist, are recorded *at* ``cur`` as rib/extrib
entries with smaller PT values. The walk therefore first considers the
best in-node threshold (the longest of those suffixes that extends) and
only takes the link when nothing at the node covers a longer suffix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import search
from repro.exceptions import SearchError
from repro.obs import get_registry
from repro.obs.trace import get_tracer


@dataclass
class MatchingResult:
    """Outcome of streaming a query through an index.

    Attributes
    ----------
    lengths:
        ``lengths[j]`` — length of the longest suffix of ``query[:j+1]``
        that is a substring of the data string (matching statistics,
        end-aligned).
    end_nodes:
        ``end_nodes[j]`` — backbone node where that suffix's first
        occurrence ends (0 when ``lengths[j] == 0``).
    checks:
        Number of suffix-set checks performed (one per node at which an
        extension was attempted) — the paper's "number of nodes checked"
        metric of Table 6.
    link_hops:
        Number of upstream link traversals taken during fallback.
    """

    lengths: list = field(default_factory=list)
    end_nodes: list = field(default_factory=list)
    checks: int = 0
    link_hops: int = 0


@dataclass(frozen=True)
class MaximalMatch:
    """One right-maximal matching substring between data and query.

    ``data_starts`` lists every 0-indexed occurrence start in the data
    string ("including repetitions", Section 4); ``query_start`` is the
    0-indexed start in the query; ``length`` the match length.
    """

    query_start: int
    length: int
    data_starts: tuple

    @property
    def query_end(self):
        """0-indexed exclusive end in the query."""
        return self.query_start + self.length


def _extend_longest(index, cur, length, code, result, span=None):
    """Extend the longest possible suffix of the current match by ``code``.

    Returns ``(node, new_length)`` or ``None`` when ``code`` extends not
    even the empty suffix (the character does not occur in the data
    string). ``cur`` must be the first-occurrence end node of the current
    length-``length`` match, and its vertebra must not carry ``code``.
    ``span`` is an active trace span (:mod:`repro.obs.trace`); edge
    decisions and link hops land on it.

    When the full-length edge fails, the rib for ``code`` at ``cur``
    (if any) failed its threshold and so did every element of its
    extrib chain, so the longest suffix recorded at ``cur`` that *does*
    extend is the last one the edge rule rejected.
    """
    edge = search._edge
    vertebra_run = index.vertebra_run
    probe = (code,)
    while True:
        result.checks += 1
        nxt, rejected = edge(index, cur, length, code, span)
        if nxt is not None:
            return nxt, length + 1
        if cur == 0:
            # At the root the match length is zero; no edge means the
            # character is absent from the data string.
            return None
        dest, lel = index.link(cur)
        if rejected is not None and rejected[1] >= lel:
            # The longest extendable suffix is recorded at this node.
            cand_dest, cand_pt = rejected
            if span is not None:
                span.event("pt-accept", node=cur, pt=cand_pt,
                           pathlength=cand_pt, dest=cand_dest,
                           shortened=True)
            return cand_dest, cand_pt + 1
        if span is not None:
            span.event("link-hop", src=cur, dest=dest, lel=lel,
                       pathlength=length)
        cur = dest
        length = lel
        result.link_hops += 1
        if vertebra_run(cur, probe, 0):
            result.checks += 1
            if span is not None:
                span.vertebra(cur)
            return cur + 1, length + 1


def _extend(index, cur, length, code, result, span=None):
    """:func:`_extend_longest` for any ``cur``: the vertebra first."""
    if index.vertebra_run(cur, (code,), 0):
        result.checks += 1
        if span is not None:
            span.vertebra(cur)
        return cur + 1, length + 1
    return _extend_longest(index, cur, length, code, result, span)


def matching_statistics(index, query):
    """End-aligned matching statistics of ``query`` against the index.

    Returns a :class:`MatchingResult`; ``lengths[j]`` is the longest
    suffix of ``query[:j+1]`` occurring in the data string. Runs on
    every traversal layer, under its read lock, a vertebra run at a
    time.
    """
    codes = index.alphabet.encode(query)
    prefix = index.NAME_PREFIX
    registry = get_registry()
    observing = registry.enabled
    tracer = get_tracer()
    span = (tracer.begin(prefix + "matching.statistics",
                         query_chars=len(query))
            if tracer.enabled else None)
    if observing:
        started = time.perf_counter()
    result = MatchingResult()
    lengths = result.lengths
    end_nodes = result.end_nodes
    vertebra_run = index.vertebra_run
    m = len(codes)
    cur = 0
    length = 0
    j = 0
    with index.read_locked():
        while j < m:
            run = vertebra_run(cur, codes, j)
            if run:
                if span is not None:
                    span.vertebra(cur, run)
                result.checks += run
                lengths.extend(range(length + 1, length + run + 1))
                end_nodes.extend(range(cur + 1, cur + run + 1))
                cur += run
                length += run
                j += run
                if j == m:
                    break
            hit = _extend_longest(index, cur, length, codes[j], result,
                                  span)
            if hit is None:
                cur, length = 0, 0
            else:
                cur, length = hit
            lengths.append(length)
            end_nodes.append(cur)
            j += 1
    if span is not None:
        tracer.finish(span, status="done", checks=result.checks,
                      link_hops=result.link_hops)
    if observing:
        # One bulk publish per streamed query — the per-hop accounting
        # already lives in the MatchingResult.
        registry.counter(prefix + "matching.queries").inc()
        registry.counter(prefix + "matching.chars").inc(len(codes))
        registry.counter(prefix + "matching.checks").inc(result.checks)
        registry.counter(prefix + "matching.link_hops").inc(
            result.link_hops)
        registry.histogram(prefix + "matching.match_length").observe_many(
            lengths)
        registry.timer(prefix + "matching.statistics.seconds").observe(
            time.perf_counter() - started)
    return result


def maximal_matches(index, query, min_length=1, with_positions=True):
    """All right-maximal matching substrings of ``query`` in the data.

    A match is reported at query position ``j`` when the running match of
    length ``L`` cannot be extended past ``j`` and ``L >= min_length``;
    with ``with_positions`` its data occurrences ("including
    repetitions") are resolved in one shared backbone scan
    (:class:`repro.core.search.OccurrenceScanner`), exactly the deferred
    strategy of Section 4.

    Returns ``(matches, result)`` with ``matches`` a list of
    :class:`MaximalMatch` ordered by query position and ``result`` the
    underlying :class:`MatchingResult` (for check accounting).
    """
    if min_length < 1:
        raise SearchError("min_length must be >= 1")
    result = matching_statistics(index, query)
    lengths = result.lengths
    end_nodes = result.end_nodes
    m = len(lengths)
    events = []
    for j in range(m):
        length = lengths[j]
        if length < min_length:
            continue
        extended = j + 1 < m and lengths[j + 1] == length + 1
        if not extended:
            events.append((j, length, end_nodes[j]))
    if not with_positions:
        return [MaximalMatch(j - length + 1, length, ())
                for j, length, _ in events], result
    scanner = search.OccurrenceScanner(index)
    pids = [scanner.add(end_node, length)
            for _, length, end_node in events]
    with index.read_locked():
        starts = scanner.resolve_starts() if events else {}
    matches = [MaximalMatch(query_start=j - length + 1, length=length,
                            data_starts=tuple(starts[pid]))
               for pid, (j, length, _) in zip(pids, events)]
    return matches, result


def brute_force_matching_statistics(data, query):
    """Oracle matching statistics by direct substring testing.

    Quadratic-ish; for tests only. ``lengths[j]`` = longest suffix of
    ``query[:j+1]`` that is a substring of ``data``.
    """
    lengths = []
    prev = 0
    for j in range(len(query)):
        # The statistic can grow by at most one per position.
        best = 0
        for length in range(min(prev + 1, j + 1), 0, -1):
            if query[j + 1 - length:j + 1] in data:
                best = length
                break
        lengths.append(best)
        prev = best
    return lengths
