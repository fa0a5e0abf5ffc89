"""Span recording around public library calls, for the traced run.

The traced run wraps a fixed list of the library's public functions and
methods (:data:`PROBES`) for its duration, so every call the workload
makes into a layer -- and every call one layer makes into another --
leaves one span: name, start, end, parent span and the request id of the
benchmark operation that caused it. Spans stay in memory and are written
out when the benchmark ends. Nothing inside ``src/`` changes; a probe
whose target no longer exists is skipped.

Self time is a span's duration minus the part of it its child spans
cover; :func:`self_times` computes it and :func:`role_totals` sums it per
request by the role of the layer (:data:`ROLES`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute path, span name). Wrapped only in the traced run.
PROBES = [
    ("repro.core.index", "SpineIndex.find_all", "index.find_all"),
    ("repro.core.index", "SpineIndex.contains", "index.contains"),
    ("repro.core.search", "find_first_end", "search.find_first_end"),
    ("repro.core.search", "find_all", "search.find_all"),
    ("repro.core.search", "OccurrenceScanner.resolve",
     "search.OccurrenceScanner.resolve"),
    ("repro.core.batch", "traverse_first_end", "batch.traverse_first_end"),
    ("repro.core.batch", "batch_find_all", "batch.batch_find_all"),
    ("repro.core.matching", "matching_statistics",
     "matching.matching_statistics"),
    ("repro.core.matching", "maximal_matches", "matching.maximal_matches"),
    ("repro.disk.spine_disk", "DiskSpineIndex.extend", "disk.extend"),
    ("repro.disk.spine_disk", "DiskSpineIndex.checkpoint",
     "disk.checkpoint"),
    ("repro.disk.spine_disk", "DiskSpineIndex.contains", "disk.contains"),
    ("repro.disk.spine_disk", "DiskSpineIndex.find_all", "disk.find_all"),
    ("repro.shard.index", "ShardedSpineIndex.find_all_at",
     "shard.find_all_at"),
    ("repro.shard.index", "ShardedSpineIndex.batch_find_all",
     "shard.batch_find_all"),
    ("repro.serve", "QueryService.find_all", "serve.find_all"),
    ("repro.serve", "QueryService.batch_find_all", "serve.batch_find_all"),
]

#: Role of each span name. ``traverse`` is the root-to-node walk (for
#: matching: the streaming walk of ``_extend_longest``), ``scan`` the
#: link scan that turns a first occurrence into all of them (a disk
#: ``find_all`` is timed whole here: its <= 32-step walk is negligible
#: next to the Link-Table sweep), ``write`` index mutation, and
#: ``front`` everything a read call does around those two.
ROLES = {
    "search.find_first_end": "traverse",
    "batch.traverse_first_end": "traverse",
    "matching.matching_statistics": "traverse",
    "disk.contains": "traverse",
    "search.find_all": "scan",
    "search.OccurrenceScanner.resolve": "scan",
    "disk.find_all": "scan",
    "disk.extend": "write",
    "disk.checkpoint": "write",
    "index.find_all": "front",
    "index.contains": "front",
    "batch.batch_find_all": "front",
    "matching.maximal_matches": "front",
    "shard.find_all_at": "shard",
    "shard.batch_find_all": "shard",
    "serve.find_all": "serve",
    "serve.batch_find_all": "serve",
}


class SpanRecorder:
    """Collects spans as ``(id, parent, request, name, start, end)``.

    Each thread keeps its own stack of open spans, so spans opened by
    concurrent client threads never adopt each other as parents.
    """

    def __init__(self):
        self.spans = []
        #: Speed factor of each request (see ``common.Speed``).
        self.factors = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, name, factor=1.0):
        """A root span for one benchmark operation; yields its id.
        ``factor`` converts the request's times to reference speed."""
        sid = next(self._ids)
        self.factors[sid] = factor
        stack = self._stack()
        stack.append((sid, sid))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, None, sid, name, start, end))

    def wrap(self, fn, name):
        """``fn`` recording one child span per call."""
        ids = self._ids
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent, request = stack[-1] if stack else (None, None)
            sid = next(ids)
            stack.append((sid, request))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, request, name, start, end))

        return wrapper


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


@contextmanager
def patched(make_wrapper, probes):
    """Replace each ``probes`` target by ``make_wrapper(fn, name)`` for
    the duration of the block; missing targets are skipped."""
    saved = []
    try:
        for module_name, path, name in probes:
            owner, attr = _resolve(module_name, path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, make_wrapper(fn, name))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


@contextmanager
def tracing(recorder):
    """Record spans around every :data:`PROBES` call in the block."""
    with patched(recorder.wrap, PROBES):
        yield recorder


@contextmanager
def counting_scan_nodes(totals):
    """Add each ``OccurrenceScanner.resolve`` call's ``last_scan_nodes``
    to ``totals["resolve_scan_nodes"]`` (and count the calls)."""

    def make(fn, _name):
        @functools.wraps(fn)
        def wrapper(scanner, *args, **kwargs):
            result = fn(scanner, *args, **kwargs)
            totals["resolve_calls"] += 1
            totals["resolve_scan_nodes"] += scanner.last_scan_nodes
            return result
        return wrapper

    probe = [("repro.core.search", "OccurrenceScanner.resolve", "")]
    with patched(make, probe):
        yield totals


def self_times(spans):
    """``{span id: self seconds}``: duration minus the union of the
    child intervals, clipped to the span."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


def role_totals(spans, own=None, factors=None):
    """``{request id: {role: self seconds}}``, each request's times
    multiplied by its entry in ``factors``; root spans count under the
    ``bench`` role (the benchmark's own time inside an operation)."""
    own = self_times(spans) if own is None else own
    factors = factors or {}
    totals = defaultdict(lambda: defaultdict(float))
    for sid, parent, request, name, _, _ in spans:
        role = "bench" if parent is None else ROLES.get(name, "front")
        totals[request][role] += own[sid] * factors.get(request, 1.0)
    return totals


def check_nesting(spans, own=None, slack=1e-6):
    """Problems with the span tree: negative self times, children
    outside their parent's interval or request, unknown parents."""
    own = self_times(spans) if own is None else own
    by_id = {span[0]: span for span in spans}
    problems = []
    for sid, parent, request, name, start, end in spans:
        if own[sid] < -slack:
            problems.append(f"{name}#{sid}: negative self time")
        if parent is None:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"{name}#{sid}: parent {parent} missing")
        elif start < outer[4] - slack or end > outer[5] + slack:
            problems.append(f"{name}#{sid}: outside parent {outer[3]}")
        elif request != outer[2]:
            problems.append(f"{name}#{sid}: request differs from parent")
    return problems


def summarize(spans, own=None):
    """Per span name: calls, total and self seconds."""
    own = self_times(spans) if own is None else own
    summary = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                   "self_s": 0.0})
    for sid, _, _, name, start, end in spans:
        entry = summary[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own[sid]
    return dict(sorted(summary.items()))
