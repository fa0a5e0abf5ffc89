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

from dataclasses import dataclass, field

from repro.core import search
from repro.exceptions import SearchError
from repro.obs import query_scope


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


def matching_statistics(index, query):
    """End-aligned matching statistics of ``query`` against the index.

    Returns a :class:`MatchingResult`; ``lengths[j]`` is the longest
    suffix of ``query[:j+1]`` occurring in the data string. One
    :func:`repro.core.search.walk` in fallback mode, on every traversal
    layer, under its read lock.
    """
    codes = index.alphabet.encode(query)
    prefix = index.NAME_PREFIX
    name = prefix + "matching.statistics"
    result = MatchingResult()
    lengths = result.lengths
    with query_scope(name, timer=name + ".seconds",
                     query_chars=len(query)) as scope:
        with index.read_locked():
            _, _, result.checks, result.link_hops = search.walk(
                index, codes, record=(lengths, result.end_nodes))
        metrics = scope.metrics
        if metrics is not None:
            # One bulk publish per streamed query — the walk counts in
            # locals.
            metrics.counter(prefix + "matching.queries").inc()
            metrics.counter(prefix + "matching.chars").inc(len(codes))
            metrics.counter(prefix + "matching.checks").inc(result.checks)
            metrics.counter(prefix + "matching.link_hops").inc(
                result.link_hops)
            metrics.histogram(prefix + "matching.match_length") \
                .observe_many(lengths)
        scope.close("done", checks=result.checks,
                    link_hops=result.link_hops)
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
