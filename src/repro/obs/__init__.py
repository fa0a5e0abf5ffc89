"""Observability for the SPINE stack: one instrumentation surface.

The library's hot paths — online construction
(:meth:`repro.core.index.SpineIndex.extend`), pattern search
(:mod:`repro.core.search`), streaming matches
(:mod:`repro.core.matching`), binary persistence
(:mod:`repro.core.serialize`) and the page-resident disk index
(:mod:`repro.disk.spine_disk`) — all report into the process-global
:class:`~repro.obs.registry.MetricsRegistry` held here. Metrics are
**off by default**: the global registry starts disabled and every
instrumented site gates on ``registry.enabled`` before doing any work,
so production-style runs pay (near) nothing.

Typical use::

    from repro import obs

    with obs.metrics_enabled() as registry:
        index = SpineIndex(genome)
        index.find_all("ACGTTACG")
        print(registry.snapshot()["counters"])

or imperatively with ``obs.enable_metrics()`` / ``obs.disable_metrics()``.
The ``repro profile`` CLI subcommand and
``benchmarks/bench_report.py`` build their JSON reports from exactly
this surface.

Aggregates are one half of the story; :mod:`repro.obs.trace` is the
other: per-query **spans** recording the traversal itself (rib
attempts, PT accept/reject decisions, extrib fallthroughs, link hops,
buffer-pool page fetches), sampled every Nth query and exported as
JSON lines. The ``repro explain`` subcommand
(:mod:`repro.obs.explain`) renders a single pattern's span as a
human-readable step-by-step account. Both follow the same off-by-
default, one-attribute-check-when-disabled discipline.

On top of both sits the **serving telemetry** layer:
:mod:`repro.obs.export` renders the registry as Prometheus text
exposition and flushes JSONL snapshots, :mod:`repro.obs.quantiles`
adds fixed-memory streaming p50/p95/p99/p999 latency estimates to the
query hot paths, :mod:`repro.obs.slowlog` keeps a bounded ring of
structured slow-query records, and :mod:`repro.obs.health` serves
``/metrics`` + ``/healthz`` + ``/stats`` over stdlib ``http.server``
(started via ``QueryService(stats_port=...)`` or ``repro serve
--stats-port``). Same discipline throughout: everything is off by
default and costs one attribute check while off.

Every query verb opens its span, starts its clock and closes both
through one helper, :func:`query_scope`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.exceptions import DeadlineExceededError, ServiceClosedError
from repro.obs import trace as _trace

from repro.obs.export import (
    MetricsFlusher,
    render_prometheus,
)
from repro.obs.quantiles import (
    DEFAULT_QUANTILES,
    P2Quantile,
    StreamingQuantiles,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BOUNDS_US,
    MetricsRegistry,
    NULL_INSTRUMENT,
    Timer,
)
from repro.obs.report import build_report, record_io_snapshot
from repro.obs.slowlog import (
    SlowQueryLog,
    get_slow_log,
    set_slow_log,
    slow_log_enabled,
)
from repro.obs.trace import (
    Span,
    active_span,
    Tracer,
    get_tracer,
    set_tracer,
    summarize_spans,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "DEFAULT_QUANTILES",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDS_US",
    "MetricsFlusher",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_SCOPE",
    "P2Quantile",
    "QueryScope",
    "SlowQueryLog",
    "Span",
    "StreamingQuantiles",
    "Tracer",
    "active_span",
    "build_report",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
    "get_slow_log",
    "get_tracer",
    "metrics_enabled",
    "query_scope",
    "record_io_snapshot",
    "render_prometheus",
    "set_registry",
    "set_slow_log",
    "set_tracer",
    "slow_log_enabled",
    "summarize_spans",
    "Timer",
    "tracing_enabled",
]

#: Process-global registry; disabled until someone opts in.
_registry = MetricsRegistry(enabled=False)


def get_registry():
    """The process-global :class:`MetricsRegistry`."""
    return _registry


def set_registry(registry):
    """Swap the global registry (returns the previous one)."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def enable_metrics(reset=False):
    """Enable the global registry; returns it. ``reset=True`` also
    drops previously accumulated values."""
    if reset:
        _registry.reset()
    _registry.enable()
    return _registry


def disable_metrics():
    """Disable the global registry (accumulated values are kept)."""
    _registry.disable()
    return _registry


@contextmanager
def metrics_enabled(reset=True):
    """Enable metrics for a ``with`` block, restoring the previous
    state afterwards; yields the global registry."""
    was_enabled = _registry.enabled
    if reset:
        _registry.reset()
    _registry.enable()
    try:
        yield _registry
    finally:
        if not was_enabled:
            _registry.disable()


class QueryScope:
    """One query's instrumentation — its span (``None`` when tracing is
    off or the query is unsampled), the enabled registry as ``metrics``
    (or ``None``), its clock and its close. Made by :func:`query_scope`
    and used as a ``with`` block."""

    __slots__ = ("span", "metrics", "_tracer", "_latency", "_timer",
                 "_started", "_open")

    def __init__(self, metrics, tracer, span, latency, timer):
        self.span = span
        self.metrics = metrics
        self._tracer = tracer
        self._latency = latency
        self._timer = timer
        self._started = (time.perf_counter() if metrics is not None
                         else None)
        self._open = span is not None or metrics is not None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self._open:
            return False
        if exc_type is None:
            self.close()
            return False
        self._open = False
        if self.span is not None:
            cancelled = isinstance(exc, (DeadlineExceededError,
                                         ServiceClosedError))
            self._tracer.finish(self.span,
                                "cancelled" if cancelled else "error",
                                error=exc_type.__name__)
        return False

    def close(self, status=None, **attrs):
        """Close the query as answered: observe its latency once and
        finish the span with ``status`` and ``attrs``. Leaving the
        ``with`` block closes it too; a second close does nothing."""
        if not self._open:
            return
        self._open = False
        if self.metrics is not None:
            seconds = time.perf_counter() - self._started
            if self._latency is not None:
                self.metrics.observe_latency(self._latency, seconds)
            if self._timer is not None:
                self.metrics.timer(self._timer).observe(seconds)
        if self.span is not None:
            self._tracer.finish(self.span, status, **attrs)


#: The shared, never-open scope of every query nothing observes.
NULL_SCOPE = QueryScope(None, None, None, None, None)


def query_scope(op, latency=None, timer=None, **attrs):
    """Open the instrumentation of one query: a span named ``op`` with
    ``attrs`` when the global tracer samples it, and a clock when the
    global registry is on.

    On a normal close the elapsed time goes once to
    :meth:`MetricsRegistry.observe_latency` under ``latency`` and/or to
    the :class:`Timer` named ``timer``. When the block raises, the span
    closes with ``status="cancelled"`` for a deadline or a service
    shutdown, ``"error"`` otherwise, and ``error=<exception name>``;
    no latency is observed. With both off this returns
    :data:`NULL_SCOPE` and allocates nothing.

    >>> with metrics_enabled() as registry, tracing_enabled() as tracer:
    ...     with query_scope("demo", timer="demo.seconds", n=1) as scope:
    ...         scope.span.event("step")
    ...         scope.close("hit", found=True)
    ...     timed = registry.timer("demo.seconds").count
    >>> span = tracer.spans[-1]
    >>> span.op, span.status, span.attrs, len(span.events), timed
    ('demo', 'hit', {'n': 1, 'found': True}, 1, 1)
    >>> query_scope("demo") is NULL_SCOPE
    True
    """
    tracer = _trace._tracer
    if not (tracer.enabled or _registry.enabled):
        return NULL_SCOPE
    span = tracer.begin(op, **attrs) if tracer.enabled else None
    metrics = _registry if _registry.enabled else None
    if span is None and metrics is None:
        return NULL_SCOPE
    return QueryScope(metrics, tracer, span, latency, timer)
