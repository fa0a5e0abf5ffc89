"""Structured query-path tracing for SPINE traversals.

The metrics registry (:mod:`repro.obs.registry`) answers aggregate
questions — how many queries, how many PT rejections in total. It
cannot answer the paper's *per-query* questions from the
false-positive-exclusion discussion: which ribs did this pattern
attempt, why did a PT check reject the path, which extrib chain was
followed, and how many disk pages did this one search touch. This
module records exactly that: a **query span** per traced search with an
ordered list of structural **events**.

Event vocabulary (one dict per event, ``type`` plus typed fields):

=====================  ================================================
type                   meaning / fields
=====================  ================================================
``vertebra-run``       ``count`` consecutive vertebra steps starting
                       below node ``start`` (coalesced so a long
                       backbone run is one event, not thousands)
``enter-rib``          a rib for ``code`` exists at ``node``
                       (``dest``, ``pt``, ``pathlength``)
``pt-accept``          the rib's threshold admitted the path
``pt-reject``          ``pathlength > pt`` — the paper's false-positive
                       exclusion firing
``extrib-fallthrough`` one extrib chain element examined after a
                       PT-reject (``pt``, ``dest``, ``taken``)
``link-hop``           one upstream link traversal during matching
                       fallback (``src``, ``dest``, ``lel``)
``page-fetch``         one buffer-pool miss attributed to this query
                       (``page``, ``physical``)
``page-write``         one physical page write-back this query forced
                       (dirty eviction; ``page``, ``sync``)
``no-edge``            traversal dead end: no rib (or no covering
                       extrib) for ``code`` at ``node``
=====================  ================================================

Cost discipline mirrors the metrics registry: the global tracer starts
disabled, instrumented call sites gate on ``tracer.enabled`` before
doing anything, and an unsampled query costs one modulo on begin and
nothing per step (``begin`` returns ``None`` and the traced code paths
are skipped entirely). Query verbs open and close their spans through
:func:`repro.obs.query_scope`.

Sampling traces every ``sample_every``-th begun query (the first query
is always sampled), so production-style serving can keep tracing on at
low cost. Finished spans are retained in a bounded deque and exported
as JSON lines (:meth:`Tracer.export_jsonl`), one span per line.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = [
    "active_span",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "summarize_spans",
    "tracing_enabled",
]

#: Trace document schema version — bump when the JSONL shape changes.
TRACE_SCHEMA = 1


class Span:
    """One traced query: identity, free-form attributes, event list."""

    __slots__ = ("trace_id", "op", "attrs", "events", "started",
                 "duration", "status", "coalesce", "_parent")

    def __init__(self, trace_id, op, attrs=None, coalesce=True):
        self.trace_id = trace_id
        self.op = op
        self.attrs = dict(attrs) if attrs else {}
        self.events = []
        self.started = time.perf_counter()
        self.duration = None
        self.status = None
        #: Merge consecutive vertebra steps into one ``vertebra-run``
        #: event; the explain engine turns this off to keep a strict
        #: one-event-per-step record.
        self.coalesce = coalesce
        self._parent = None

    def event(self, etype, **fields):
        """Append one structural event."""
        fields["type"] = etype
        self.events.append(fields)

    def vertebra(self, node, count=1):
        """Record ``count`` vertebra steps out of ``node`` (coalescing
        unless :attr:`coalesce` is off: then one event per step)."""
        events = self.events
        if not self.coalesce:
            events.extend({"type": "vertebra-run", "start": start,
                           "count": 1}
                          for start in range(node, node + count))
        elif events and events[-1]["type"] == "vertebra-run":
            events[-1]["count"] += count
        else:
            events.append({"type": "vertebra-run", "start": node,
                           "count": count})

    def set(self, **attrs):
        """Merge attributes (occurrence counts, scan lengths, ...)."""
        self.attrs.update(attrs)

    def to_dict(self):
        """JSON-ready rendering (the JSONL line shape)."""
        return {
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "op": self.op,
            "status": self.status,
            "duration_seconds": self.duration,
            "attrs": self.attrs,
            "event_count": len(self.events),
            "events": self.events,
        }

    def __repr__(self):
        return (f"Span({self.op!r}, id={self.trace_id}, "
                f"events={len(self.events)}, status={self.status!r})")


class _Active(threading.local):
    """Each thread's active span (``None`` until one begins there)."""

    span = None


class Tracer:
    """Owns each thread's active span, the sampling decision and the
    finished spans.

    Parameters
    ----------
    enabled:
        When false, :meth:`begin` returns ``None`` and instrumented
        code skips the traced path entirely (call sites gate on
        ``tracer.enabled`` first, exactly like the metrics registry).
    sample_every:
        Trace every Nth begun query; the first is always sampled.
    max_spans:
        Retention bound for finished spans (oldest dropped first;
        drops are counted in :attr:`dropped`).
    coalesce_vertebras:
        Default ``coalesce`` flag of spans this tracer creates.
    """

    def __init__(self, enabled=False, sample_every=1, max_spans=4096,
                 coalesce_vertebras=True):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.enabled = enabled
        self.sample_every = sample_every
        self.coalesce_vertebras = coalesce_vertebras
        self.dropped = 0
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._next_id = itertools.count(1)
        self._active = _Active()
        self._spans = deque(maxlen=max_spans)

    @property
    def active(self):
        """The span the calling thread's query is recording into, or
        ``None``. The engine walk, the shard fan-out and the storage
        layers (page-fetch attribution) read this instead of having a
        span threaded through every call; a span begun on one thread
        is never another thread's."""
        return self._active.span

    # -- lifecycle -----------------------------------------------------

    def enable(self, sample_every=None):
        """Turn tracing on (optionally adjusting the sampling rate)."""
        if sample_every is not None:
            if sample_every < 1:
                raise ValueError("sample_every must be >= 1")
            self.sample_every = sample_every
        self.enabled = True
        return self

    def disable(self):
        """Turn tracing off (retained spans are kept)."""
        self.enabled = False
        return self

    def reset(self):
        """Drop retained spans and restart sampling/id sequences."""
        self._spans.clear()
        self._active = _Active()
        self.dropped = 0
        self._seq = 0
        self._next_id = itertools.count(1)

    # -- span lifecycle ------------------------------------------------

    def begin(self, op, **attrs):
        """Start a query span, or return ``None`` when disabled or the
        query falls outside the sample.

        The returned span becomes the calling thread's :attr:`active`
        span (the previous one, if any, is restored by :meth:`finish` —
        nested spans are legal and each records its own events).
        """
        if not self.enabled:
            return None
        # Begins race under threads: number them under a lock (taken
        # only while tracing is on) so none is lost to the sample.
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        if self.sample_every > 1 and (seq - 1) % self.sample_every:
            return None
        span = Span(next(self._next_id), op, attrs,
                    coalesce=self.coalesce_vertebras)
        active = self._active
        span._parent = active.span
        active.span = span
        return span

    def finish(self, span, status=None, **attrs):
        """Close ``span``: stamp duration/status, restore the previous
        active span, retain the result. ``None`` spans (unsampled) are
        accepted and ignored so call sites need no extra branch."""
        if span is None:
            return None
        span.duration = time.perf_counter() - span.started
        if status is not None:
            span.status = status
        if attrs:
            span.attrs.update(attrs)
        active = self._active
        if active.span is span:
            active.span = span._parent
        if len(self._spans) == self._spans.maxlen:
            self.dropped += 1
        self._spans.append(span)
        return span

    # -- results -------------------------------------------------------

    @property
    def spans(self):
        """Finished spans, oldest first."""
        return list(self._spans)

    def drain(self):
        """Return and clear the retained spans."""
        spans = list(self._spans)
        self._spans.clear()
        return spans

    def export_jsonl(self, path_or_file, drain=False):
        """Write every retained span as one JSON line; returns the
        number of lines written. ``path_or_file`` may be a path or an
        open text file; ``drain=True`` also clears the retention."""
        spans = self._spans
        if hasattr(path_or_file, "write"):
            for span in spans:
                path_or_file.write(json.dumps(span.to_dict()) + "\n")
        else:
            with open(path_or_file, "w") as handle:
                for span in spans:
                    handle.write(json.dumps(span.to_dict()) + "\n")
        count = len(spans)
        if drain:
            self._spans.clear()
        return count

    def summary(self):
        """:func:`summarize_spans` over the retained spans."""
        summary = summarize_spans(self._spans)
        summary["sample_every"] = self.sample_every
        summary["queries_seen"] = self._seq
        summary["dropped_spans"] = self.dropped
        return summary

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return (f"Tracer({state}, 1/{self.sample_every} sampled, "
                f"{len(self._spans)} spans retained)")


def summarize_spans(spans):
    """Aggregate a span collection into the report-friendly shape used
    by ``benchmarks/bench_report.py`` (span counts per op, event-type
    counts, PT-rejection rate, pages-per-query distribution)."""
    by_op = {}
    events = {}
    fetch_counts = []
    for span in spans:
        by_op[span.op] = by_op.get(span.op, 0) + 1
        fetches = 0
        for event in span.events:
            etype = event["type"]
            events[etype] = events.get(etype, 0) + 1
            if etype == "page-fetch":
                fetches += 1
        fetch_counts.append(fetches)
    accepts = events.get("pt-accept", 0)
    rejects = events.get("pt-reject", 0)
    checked = accepts + rejects
    pages = {"total_fetches": sum(fetch_counts)}
    if fetch_counts:
        pages.update(
            min=min(fetch_counts),
            max=max(fetch_counts),
            mean=sum(fetch_counts) / len(fetch_counts),
        )
    return {
        "schema": TRACE_SCHEMA,
        "spans": len(fetch_counts),
        "by_op": dict(sorted(by_op.items())),
        "events": dict(sorted(events.items())),
        "pt_checks": {
            "accepts": accepts,
            "rejects": rejects,
            "reject_rate": rejects / checked if checked else 0.0,
        },
        "pages_per_query": pages,
    }


#: Process-global tracer; disabled until someone opts in.
_tracer = Tracer(enabled=False)


def get_tracer():
    """The process-global :class:`Tracer`."""
    return _tracer


def set_tracer(tracer):
    """Swap the global tracer (returns the previous one)."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def active_span():
    """The calling thread's active span while the global tracer is on,
    else ``None`` — what deep layers record their events into."""
    tracer = _tracer
    return tracer.active if tracer.enabled else None


@contextmanager
def tracing_enabled(sample_every=1, reset=True,
                    coalesce_vertebras=True):
    """Enable the global tracer for a ``with`` block, restoring the
    previous enabled/sampling state afterwards; yields the tracer."""
    tracer = _tracer
    was_enabled = tracer.enabled
    prev_sample = tracer.sample_every
    prev_coalesce = tracer.coalesce_vertebras
    if reset:
        tracer.reset()
    tracer.coalesce_vertebras = coalesce_vertebras
    tracer.enable(sample_every)
    try:
        yield tracer
    finally:
        tracer.sample_every = prev_sample
        tracer.coalesce_vertebras = prev_coalesce
        if not was_enabled:
            tracer.disable()
