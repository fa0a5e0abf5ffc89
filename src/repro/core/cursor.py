"""Streaming search cursors.

SPINE is an online index; these cursors make the *query* side online
too. A :class:`SearchCursor` consumes one character at a time and
tracks whether the consumed string is still a substring — the
interactive-search primitive (think incremental find-as-you-type). A
:class:`StreamMatcher` consumes an unbounded query stream and emits
right-maximal match events as they complete, equivalent to
:func:`repro.core.matching.maximal_matches` without needing the whole
query in memory.

Both run on every traversal layer (in-memory, packed, disk) through the
query engine in :mod:`repro.core.search` and :mod:`repro.core.matching`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import matching, search
from repro.exceptions import SearchError
from repro.obs.trace import get_tracer


class SearchCursor:
    """Incremental substring test against a built index.

    ``feed`` consumes one character and returns whether the *entire*
    consumed string is still a substring of the indexed text;
    once dead, the cursor stays dead until :meth:`reset`.

    >>> from repro.core import SpineIndex
    >>> cursor = SearchCursor(SpineIndex("aaccacaaca"))
    >>> [cursor.feed(ch) for ch in "acca"]
    [True, True, True, True]
    >>> cursor.feed("a")   # "accaa" is the paper's false positive
    False
    >>> cursor.first_occurrence  # of the last live prefix, "acca"
    1
    """

    def __init__(self, index):
        self.index = index
        self._node = 0
        self._length = 0
        self._alive = True
        # Incremental feeds attach to whatever query span is active
        # (wrap a feeding session in ``tracer.query(...)`` to trace it).
        self._tracer = get_tracer()

    def feed(self, ch):
        """Consume one character; returns liveness."""
        if len(ch) != 1:
            raise SearchError("feed exactly one character")
        if not self._alive:
            return False
        code = self.index.alphabet.encode_char(ch)
        with self.index.read_locked():
            nxt = search.step(self.index, self._node, self._length,
                              code, self._tracer.active)
        if nxt is None:
            self._alive = False
            return False
        self._node = nxt
        self._length += 1
        return True

    @property
    def alive(self):
        """Whether the consumed string is still a substring."""
        return self._alive

    @property
    def matched_length(self):
        """Length of the live prefix (frozen at death)."""
        return self._length

    @property
    def first_occurrence(self):
        """0-indexed start of the live prefix's first occurrence."""
        return self._node - self._length

    def occurrences(self):
        """All occurrences of the live prefix (empty when length 0)."""
        if self._length == 0:
            return []
        scanner = search.OccurrenceScanner(self.index)
        pid = scanner.add(self._node, self._length)
        with self.index.read_locked():
            return scanner.resolve_starts()[pid]

    def reset(self):
        """Back to the root, alive, nothing consumed."""
        self._node = 0
        self._length = 0
        self._alive = True
        return self


@dataclass(frozen=True)
class StreamEvent:
    """A right-maximal match emitted by :class:`StreamMatcher`.

    ``query_end`` is the 0-indexed exclusive end in the stream consumed
    so far; the match covers ``query_end - length .. query_end``.
    ``data_end`` is the backbone node ending the first occurrence.
    """

    query_end: int
    length: int
    data_end: int

    @property
    def query_start(self):
        """0-indexed start of the match in the stream."""
        return self.query_end - self.length

    @property
    def data_start(self):
        """0-indexed start of the first data occurrence."""
        return self.data_end - self.length


class StreamMatcher:
    """Online right-maximal matching over an unbounded query stream.

    ``feed`` consumes one query character and returns the
    :class:`StreamEvent` completed by that character, if any (a match
    is right-maximal exactly when the next character fails to extend
    it). Call :meth:`finish` after the stream ends to flush the final
    match. Event-for-event equivalent to the batch
    :func:`~repro.core.matching.maximal_matches`.
    """

    def __init__(self, index, min_length=1):
        if min_length < 1:
            raise SearchError("min_length must be >= 1")
        self.index = index
        self.min_length = min_length
        self._result = matching.MatchingResult()
        self._node = 0
        self._length = 0
        self._consumed = 0
        self._finished = False
        # Like SearchCursor, stream feeds record into the active span.
        self._tracer = get_tracer()

    def feed(self, ch):
        """Consume one character; returns a StreamEvent or ``None``."""
        if self._finished:
            raise SearchError("stream already finished")
        if len(ch) != 1:
            raise SearchError("feed exactly one character")
        code = self.index.alphabet.encode_char(ch)
        prev_node, prev_length = self._node, self._length
        result = self._result
        with self.index.read_locked():
            # The stream keeps no per-position statistics.
            self._node, self._length, checks, link_hops = search.walk(
                self.index, (code,), prev_node, prev_length,
                span=self._tracer.active, record=([], []))
        result.checks += checks
        result.link_hops += link_hops
        event = None
        if self._length != prev_length + 1 \
                and prev_length >= self.min_length:
            event = StreamEvent(query_end=self._consumed,
                                length=prev_length,
                                data_end=prev_node)
        self._consumed += 1
        return event

    def finish(self):
        """Flush the final right-maximal match (or ``None``)."""
        if self._finished:
            raise SearchError("stream already finished")
        self._finished = True
        if self._length >= self.min_length:
            return StreamEvent(query_end=self._consumed,
                               length=self._length,
                               data_end=self._node)
        return None

    @property
    def checks(self):
        """Suffix-set checks performed so far (Table 6 accounting)."""
        return self._result.checks
