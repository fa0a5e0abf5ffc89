"""Sharded SPINE: partition the text, index the pieces, merge answers.

The data string is cut into ``k`` contiguous *owned* segments. Shard
``i`` additionally indexes the ``overlap = max_pattern_len - 1``
characters that follow its owned span (they belong to shard ``i+1``),
so any occurrence of a pattern of length ``m <= max_pattern_len`` that
*starts* inside shard ``i``'s owned span lies entirely inside shard
``i``'s local text::

    start s  <  owned_end          (ownership)
    end   s + m  <=  owned_end + overlap   (since m - 1 <= overlap)

Queries therefore scatter to every shard, rebase local starts by the
shard's global offset, and drop matches whose local start falls in the
overlap region (``local_start >= owned_len``) — those are owned, and
re-found, by the next shard. Because shards are disjoint in ownership
and each shard's hit list is sorted, concatenation in shard order is
already globally sorted: the merged answers are byte-identical to the
unsharded index's.

The price is the documented **pattern-length cap**: a pattern longer
than ``max_pattern_len`` could straddle an ownership boundary beyond
the overlap and be silently missed, so every query entry point raises
:class:`~repro.exceptions.SearchError` for such patterns instead of
risking a wrong answer.

The query verbs take the flat layers' signatures (``contains``,
``find_first``, ``find_all``, ``count`` and ``batch_find_all`` with
``limit=None, cancel=None``). A snapshot ``limit`` carries over
shard-locally: the global prefix of length ``L`` restricted to shard
``i`` is exactly the local prefix of length ``clamp(L - start_i, 0,
local_len)``, so the Section 2.7 prefix property each shard already
provides composes into a lock-free consistent view of the whole —
provided ``extend`` publishes in the right order (feed draining sealed
shards, then the tail, then advance the global length).
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.alphabet import Alphabet, alphabet_for, dna_alphabet
from repro.core import batch as _batch
from repro.core import search
from repro.core.batch import BatchMatch
from repro.exceptions import (CircuitOpenError, ConstructionError,
                              DeadlineExceededError, SearchError,
                              ServiceClosedError, StorageError)
from repro.obs import get_registry, get_tracer
from repro.resilience import CircuitBreaker, PartialResult
from repro.shard.parallel import ShardBuildSpec, build_shard_indexes
from repro.storage.wal import WriteAheadLog, scan_wal, wal_path_for

__all__ = ["ShardedSpineIndex"]

_MANIFEST = "manifest.json"
_MANIFEST_VERSION = 1


class _Shard:
    """One partition: a traversal-layer index plus its placement.

    ``start``
        Global offset of the shard's first character.
    ``owned_len``
        Characters this shard *owns* (grows only on the tail shard).
    ``pending_overlap``
        Overlap characters a sealed shard has not received yet — a
        shard sealed by an extend-time split drains its overlap from
        subsequent ``extend`` calls.
    """

    __slots__ = ("index", "start", "owned_len", "pending_overlap")

    def __init__(self, index, start, owned_len, pending_overlap=0):
        self.index = index
        self.start = start
        self.owned_len = owned_len
        self.pending_overlap = pending_overlap


class ShardedSpineIndex:
    """A partitioned SPINE index with scatter-gather querying.

    Build with :meth:`build` (optionally multi-process), or reopen a
    saved one with :meth:`load`. Fronts all three traversal layers:

    - ``layer="memory"`` — one :class:`~repro.core.SpineIndex` per
      shard; supports ``extend`` with split-on-threshold.
    - ``layer="packed"`` — shards frozen into
      :class:`~repro.core.packed.PackedSpineIndex`; immutable.
    - ``layer="disk"`` — one :class:`~repro.disk.DiskSpineIndex` (its
      own page file) per shard.

    Query results are byte-identical to the unsharded index for every
    pattern up to ``max_pattern_len`` characters; longer patterns raise
    :class:`~repro.exceptions.SearchError` (see the module docstring).
    """

    def __init__(self, shards, alphabet, max_pattern_len, layer,
                 length, path=None, split_threshold=None,
                 disk_options=None):
        self._shards = list(shards)
        self.alphabet = alphabet
        self.max_pattern_len = max_pattern_len
        self.overlap = max_pattern_len - 1
        self.layer = layer
        self._len = length
        self.path = path
        self.split_threshold = split_threshold
        self._disk_options = disk_options or {}
        self._concurrent = False
        #: Shard ids under quarantine: scatter-gather skips them
        #: (degraded) or fails fast (strict) until repair completes.
        self._quarantined = set()
        #: Serializes repair publication against concurrent extends of
        #: a quarantined shard.
        self._repair_lock = threading.Lock()
        #: Per-shard circuit breakers (``None`` until
        #: :meth:`enable_breakers`); aligned with ``self._shards``.
        self._breakers = None
        self._breaker_config = None
        #: Default degradation mode for queries that do not pass an
        #: explicit ``degraded=`` (strict — fail the fan-out — unless
        #: the serving layer opts in).
        self.degraded = False

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, text, shards=4, max_pattern_len=64, alphabet=None,
              workers=1, layer="memory", path=None,
              split_threshold=None, **disk_options):
        """Partition ``text`` into ``shards`` segments and build them.

        Parameters
        ----------
        shards:
            Number of partitions (owned spans are as equal as integer
            division allows).
        max_pattern_len:
            The longest pattern the sharded index will answer; fixes
            the inter-shard overlap at ``max_pattern_len - 1``.
        alphabet:
            Global alphabet shared by every shard. Defaults like
            :class:`~repro.core.SpineIndex`: inferred from ``text``
            (DNA for empty input). Inferring per shard would be wrong —
            a segment can lack symbols the full text has.
        workers:
            Worker *processes* for construction. ``1`` builds inline;
            more fan the shards out over a process pool (see
            :mod:`repro.shard.parallel`).
        layer:
            ``"memory"`` | ``"packed"`` | ``"disk"``.
        path:
            Directory for the sharded index. Required for the disk
            layer with ``workers > 1`` (each shard gets
            ``shard-<i>.pages`` inside it); also where scratch handoff
            files go for parallel memory builds when provided.
        split_threshold:
            When set, ``extend`` seals the tail shard once its owned
            span reaches this many characters and starts a fresh one.
            ``None`` (default) grows the tail unboundedly.
        """
        if shards < 1:
            raise ConstructionError("shards must be >= 1")
        if max_pattern_len < 1:
            raise ConstructionError("max_pattern_len must be >= 1")
        if layer not in ("memory", "packed", "disk"):
            raise ConstructionError(f"unknown layer {layer!r}")
        if alphabet is None:
            alphabet = alphabet_for(text) if text else dna_alphabet()
        overlap = max_pattern_len - 1
        n = len(text)
        base, rem = divmod(n, shards)
        starts, owned = [], []
        pos = 0
        for i in range(shards):
            size = base + (1 if i < rem else 0)
            starts.append(pos)
            owned.append(size)
            pos += size
        scratch_dir = None
        if path is not None:
            os.makedirs(path, exist_ok=True)
        elif workers > 1 and layer != "disk":
            import tempfile

            scratch_dir = tempfile.mkdtemp(prefix="repro-shard-")
        specs = []
        for i in range(shards):
            stop = min(starts[i] + owned[i] + overlap, n)
            segment = text[starts[i]:stop]
            if layer == "disk":
                out = (os.path.join(path, f"shard-{i}.pages")
                       if path is not None else None)
            else:
                base_dir = path if path is not None else scratch_dir
                out = (os.path.join(base_dir, f"shard-{i}.build.spne")
                       if base_dir is not None else None)
            specs.append(ShardBuildSpec(i, segment, alphabet, layer,
                                        out, disk_options))
        try:
            indexes = build_shard_indexes(specs, workers=workers)
        finally:
            if scratch_dir is not None:
                import shutil

                shutil.rmtree(scratch_dir, ignore_errors=True)
        if layer == "packed":
            from repro.core.packed import PackedSpineIndex

            indexes = [PackedSpineIndex.from_index(ix) for ix in indexes]
        # A non-tail shard whose overlap window ran past the end of the
        # build text is still owed the missing characters: record the
        # shortfall so later ``extend`` calls drain into it, exactly
        # like a shard sealed by an extend-time split. Without this, an
        # occurrence straddling the build-time tail boundary is owned by
        # an early shard that never indexed enough text to find it.
        built = []
        for i, ix in enumerate(indexes):
            stop = min(starts[i] + owned[i] + overlap, n)
            pending = (starts[i] + owned[i] + overlap - stop
                       if i < shards - 1 else 0)
            built.append(_Shard(ix, starts[i], owned[i], pending))
        index = cls(built, alphabet, max_pattern_len, layer, n,
                    path=path, split_threshold=split_threshold,
                    disk_options=disk_options)
        if path is not None and layer != "packed":
            index.save(path)
        return index

    # -- basic protocol ------------------------------------------------

    def __len__(self):
        return self._len

    @property
    def shard_count(self):
        return len(self._shards)

    def enable_concurrent_reads(self):
        """Forward the latched-read switch to every shard (disk layer);
        remembered so shards created by later splits inherit it."""
        self._concurrent = True
        for shard in self._shards:
            shard.index.enable_concurrent_reads()

    def enable_breakers(self, failure_threshold=5, reset_timeout=1.0,
                        success_threshold=1, clock=time.monotonic):
        """Put a :class:`~repro.resilience.CircuitBreaker` in front of
        every shard (idempotent; re-calling replaces the breakers and
        their state). Shards created by later tail splits inherit the
        same configuration.

        Strict queries fail fast with
        :class:`~repro.exceptions.CircuitOpenError` while a shard's
        breaker is open; degraded queries skip the shard and report it
        in ``failed_shards``. Either way an open breaker means the
        sick shard sees **no traffic** until its half-open probe.
        """
        self._breaker_config = {
            "failure_threshold": failure_threshold,
            "reset_timeout": reset_timeout,
            "success_threshold": success_threshold,
            "clock": clock,
        }
        self._breakers = [
            CircuitBreaker(f"shard-{i}", **self._breaker_config)
            for i in range(len(self._shards))
        ]
        return self._breakers

    def breaker(self, shard_id):
        """The breaker guarding ``shard_id`` (``None`` when disabled)."""
        if self._breakers is None:
            return None
        return self._breakers[shard_id]

    @property
    def breakers_enabled(self):
        """True after :meth:`enable_breakers` (the self-healing gate:
        the scrubber only quarantines when breakers are on, because
        quarantine piggybacks on the same skip-the-shard machinery)."""
        return self._breakers is not None

    @property
    def quarantined_shards(self):
        """Sorted ids of shards currently quarantined for repair."""
        return sorted(self._quarantined)

    def quarantine(self, shard_id, reason=""):
        """Take one shard out of the query fan-out.

        Strict queries fail fast with
        :class:`~repro.exceptions.CircuitOpenError`; degraded queries
        skip the shard and report it in ``failed_shards`` — exactly an
        open breaker's behaviour, but pinned until
        :meth:`repair_shard` succeeds.  Extends aimed at a quarantined
        shard land in its write-ahead log only, so the rebuild picks
        them up (a shard without a log keeps feeding its index).
        Idempotent.
        """
        if not 0 <= shard_id < len(self._shards):
            raise SearchError(f"no shard {shard_id}")
        self._quarantined.add(shard_id)
        registry = get_registry()
        if registry.enabled:
            registry.counter("shard.quarantines").inc()
            registry.gauge("shard.quarantined").set(
                len(self._quarantined))
        tracer = get_tracer()
        if tracer.enabled:
            span = tracer.begin("shard.quarantine", shard=shard_id,
                                reason=reason)
            tracer.finish(span, status="quarantined")

    def repair_shard(self, shard_id):
        """Rebuild a quarantined disk shard online and re-admit it.

        The replacement pages are built from the shard's
        **write-ahead log** — which keeps the shard's whole local text
        and never trusts the corrupt page file — in a sidecar
        ``.rebuild`` page file, caught up with any extends that arrived
        mid-rebuild, atomically moved over the old file, and reopened
        with the shard's own log, which stays as it is; only then is
        the quarantine lifted (and the shard's breaker reset).  Queries
        keep running against the other shards the whole time — in
        degraded mode they return ``PartialResult(complete=False)``
        until the swap, complete answers after.

        Without a log holding its text from LSN 0 (none attached, one
        started by an older version, damage inside it) repair falls
        back to the old index's own text, and raises
        :class:`~repro.exceptions.StorageError` (shard stays
        quarantined) when that cannot be read back either.
        """
        if self.layer != "disk":
            raise StorageError(
                f"repair_shard only applies to disk shards "
                f"(layer={self.layer!r})")
        if not 0 <= shard_id < len(self._shards):
            raise SearchError(f"no shard {shard_id}")
        from repro.disk import DiskSpineIndex

        registry = get_registry()
        started = time.perf_counter()
        shard = self._shards[shard_id]
        source = self._logged_text(
            shard, 0, self._local_len(shard_id, shard))
        if source is None:
            # Best effort without a whole log: the old index's CL
            # region may still be readable when the corruption hit
            # elsewhere.
            try:
                source = shard.index.text
            except Exception as exc:
                raise StorageError(
                    f"shard {shard_id}: its log does not hold the "
                    f"shard's text and the old index cannot be read "
                    f"back ({exc}); repair needs the original source "
                    "text") from exc
        old_path = getattr(shard.index.pagefile, "_path", None)
        build_path = (old_path + ".rebuild"
                      if old_path is not None else None)
        # The rebuilt pages take over the shard's log, so they are
        # built without one of their own.
        new_index = DiskSpineIndex(alphabet=self.alphabet,
                                   path=build_path,
                                   **{**self._disk_options,
                                      "wal_fsync": None})
        try:
            new_index.extend(source)
            with self._repair_lock:
                owed = self._local_len(shard_id, shard)
                if owed > len(new_index):
                    # Extends that arrived while we were rebuilding
                    # are in the log only.
                    missing = self._logged_text(shard, len(new_index),
                                                owed)
                    if missing is None:
                        raise StorageError(
                            f"shard {shard_id}: the log lost extends "
                            "that arrived during the rebuild")
                    new_index.extend(missing)
                    source += missing
                if old_path is not None:
                    new_index.close(checkpoint=True)
                    # close(), not abort(): the log is kept as it is.
                    shard.index.close()
                    os.replace(build_path, old_path)
                    self._hand_over_log(
                        old_path, shard.index.generation, new_index,
                        bytes(self.alphabet.encode(source)))
                    new_index = DiskSpineIndex.open(
                        old_path, alphabet=self.alphabet,
                        **self._disk_options)
                else:
                    new_index.checkpoint()
                    shard.index.abort()
                if self._concurrent:
                    new_index.enable_concurrent_reads()
                shard.index = new_index
                if self._breakers is not None:
                    self._breakers[shard_id] = CircuitBreaker(
                        f"shard-{shard_id}", **self._breaker_config)
                self._quarantined.discard(shard_id)
        except Exception:
            # Leave the shard quarantined; drop the half-built file.
            try:
                new_index.abort()
            except Exception:
                pass
            if build_path is not None and os.path.exists(build_path):
                os.unlink(build_path)
            raise
        if registry.enabled:
            registry.counter("shard.repairs").inc()
            registry.gauge("shard.quarantined").set(
                len(self._quarantined))
            registry.timer("shard.repair.seconds").observe(
                time.perf_counter() - started)
        tracer = get_tracer()
        if tracer.enabled:
            span = tracer.begin("shard.repair", shard=shard_id,
                                chars=len(new_index))
            tracer.finish(span, status="repaired")

    def _guard(self, i, degraded, failed, fn, *args):
        """Run one shard's query ``fn(*args)`` under its breaker.

        On success returns the shard's answer. On failure: strict mode
        re-raises; degraded mode records the error in ``failed[i]``
        and returns ``None``. Failure *classification* is the point —
        storage faults count against the breaker, while deadline
        expiry and service shutdown do not (a slow client budget says
        nothing about shard health), and an open breaker's instant
        rejection never touches the shard at all.
        """
        if i in self._quarantined:
            exc = CircuitOpenError(
                f"shard-{i} is quarantined for repair",
                name=f"shard-{i}")
            if degraded:
                failed[i] = exc
                return None
            raise exc
        breaker = self._breakers[i] if self._breakers is not None \
            else None
        try:
            if breaker is not None:
                breaker.allow()
            result = fn(*args)
        except CircuitOpenError as exc:
            if degraded:
                failed[i] = exc
                return None
            raise
        except (DeadlineExceededError, ServiceClosedError) as exc:
            if degraded:
                failed[i] = exc
                return None
            raise
        except StorageError as exc:
            if breaker is not None:
                breaker.record_failure()
            if degraded:
                failed[i] = exc
                return None
            raise
        if breaker is not None:
            breaker.record_success()
        return result

    def _check_pattern(self, pattern):
        if len(pattern) > self.max_pattern_len:
            raise SearchError(
                f"pattern length {len(pattern)} exceeds this sharded "
                f"index's max_pattern_len={self.max_pattern_len}; "
                "occurrences could straddle a shard boundary beyond "
                "the overlap and be missed")

    def _local_limit(self, shard, limit):
        """Global snapshot bound ``limit`` restricted to one shard."""
        return max(0, min(limit - shard.start, len(shard.index)))

    # -- queries -------------------------------------------------------
    #
    # Every verb runs one fan-out, :meth:`_routes` then :meth:`_answers`,
    # over the shards' own engine calls.

    def _routes(self, m, limit, span=None):
        """``[(shard_id, shard, local_limit)]`` of the shards whose part
        of the length-``limit`` prefix can hold a length-``m`` match,
        in shard order (a ``shard-route`` event each)."""
        limit = self._len if limit is None else min(limit, self._len)
        routes = []
        for i, shard in enumerate(self._shards):
            bound = self._local_limit(shard, limit)
            if bound < m:
                continue
            routes.append((i, shard, bound))
            if span is not None:
                span.event("shard-route", shard=i, start=shard.start,
                           local_limit=bound)
        return routes

    def _answers(self, routes, verb, query, cancel, degraded=False,
                 failed=None, span=None, mapper=map):
        """Yield ``(shard, verb(shard.index, query, local_limit,
        cancel))`` per route, in shard order, each under the shard's
        breaker (:meth:`_guard`).

        ``mapper`` runs the asks: the lazy builtin ``map`` (so a caller
        can stop at the first hit) or an executor's. A shard that fails
        in degraded mode lands in ``failed`` and is skipped.
        """
        if failed is None:
            failed = {}

        def ask(route):
            i, shard, bound = route
            return self._guard(i, degraded, failed, verb, shard.index,
                               query, bound, cancel)

        for (i, shard, _), answer in zip(routes, mapper(ask, routes)):
            if i in failed:
                if span is not None:
                    span.event("shard-degraded", shard=i,
                               error=type(failed[i]).__name__)
                continue
            yield shard, answer

    @staticmethod
    def _merge(answers):
        """Rebase each shard's local starts and drop those in its
        overlap (the next shard owns them): ``(starts, dropped)``."""
        merged = []
        dropped = 0
        for shard, local in answers:
            kept = [s + shard.start for s in local if s < shard.owned_len]
            dropped += len(local) - len(kept)
            merged.extend(kept)
        return merged, dropped

    @staticmethod
    def _result(starts, degraded, failed):
        """``starts`` as the answer: a
        :class:`~repro.resilience.PartialResult` in degraded mode."""
        if not degraded:
            return starts
        return PartialResult(starts, complete=not failed,
                             failed_shards=sorted(failed), errors=failed)

    def _begin(self, name, **attrs):
        """Open the span of one scatter-gather call: ``(span, t0)``."""
        tracer = get_tracer()
        span = (tracer.begin(name, shards=len(self._shards), **attrs)
                if tracer.enabled else None)
        return span, time.perf_counter()

    @staticmethod
    def _fail(span, exc):
        if span is not None:
            get_tracer().finish(span, status="error",
                                error=type(exc).__name__)

    @staticmethod
    def _finish(span, started, counter, routed, kept, dropped, failed,
                **status):
        """The ``shard-merge`` event, the metrics and the span close of
        one scatter-gather call."""
        if span is not None:
            span.event("shard-merge", kept=kept, dropped=dropped,
                       routed=routed, failed=len(failed))
        registry = get_registry()
        if registry.enabled:
            registry.counter(counter).inc()
            registry.counter("shard.route.fanout").inc(routed)
            registry.counter("shard.merge.dropped").inc(dropped)
            if failed:
                registry.counter("resilience.degraded.queries").inc()
                registry.counter("resilience.degraded.failed_shards") \
                    .inc(len(failed))
            registry.observe_latency("shard.query",
                                     time.perf_counter() - started)
        if span is not None:
            get_tracer().finish(span, failed_shards=sorted(failed),
                                **status)

    def _encodable(self, pattern):
        """Cap-check ``pattern``; False when it has a foreign character
        (it occurs nowhere, so no shard is asked)."""
        self._check_pattern(pattern)
        return self.alphabet.try_encode(pattern) is not None

    def contains(self, pattern, limit=None, cancel=None):
        """True iff ``pattern`` occurs in the length-``limit`` prefix
        (cap-checked; clean ``False`` on foreign characters, ``True``
        for the empty pattern).

        Always strict: a boolean cannot express "some shards did not
        answer", so shard failures (and open breakers) raise rather
        than risk a wrong ``False``.
        """
        if pattern == "":
            return True
        if not self._encodable(pattern):
            return False
        routes = self._routes(len(pattern), limit)
        return any(hit for _, hit in self._answers(
            routes, search.contains, pattern, cancel))

    def find_first(self, pattern, limit=None, cancel=None):
        """Global start of the first occurrence, or ``None``.

        Shards are asked in order; the first shard whose earliest local
        hit lands in its owned span yields the answer (a hit in the
        overlap region belongs to — and recurs in — a later shard).
        Strict, like :meth:`contains`.
        """
        if pattern == "":
            return 0
        if not self._encodable(pattern):
            return None
        routes = self._routes(len(pattern), limit)
        for shard, local in self._answers(routes, search.find_first,
                                          pattern, cancel):
            if local is not None and local < shard.owned_len:
                return local + shard.start
        return None

    def find_all(self, pattern, limit=None, cancel=None, degraded=None):
        """Sorted global starts of all occurrences in the
        length-``limit`` prefix — byte-identical to the unsharded
        index's answer for patterns within the cap.

        ``degraded`` overrides the index-level :attr:`degraded`
        default. In degraded mode the answer is a
        :class:`~repro.resilience.PartialResult` (a ``list``): shards
        that fail — storage fault, open breaker, or a deadline slice
        exhausted mid-fan-out — are skipped and reported in
        ``failed_shards`` instead of failing the query; every
        occurrence returned is real (surviving shards answer exactly),
        but occurrences owned by a failed shard may be missing. In
        strict mode (the default) any shard failure propagates.
        """
        if pattern == "":
            raise SearchError(
                "find_all of the empty pattern is ill-defined")
        encodable = self._encodable(pattern)
        if degraded is None:
            degraded = self.degraded
        span, started = self._begin("shard.find_all", pattern=pattern)
        failed = {}
        try:
            routes = (self._routes(len(pattern), limit, span)
                      if encodable else [])
            starts, dropped = self._merge(self._answers(
                routes, search.find_all, pattern, cancel, degraded,
                failed, span))
        except BaseException as exc:
            self._fail(span, exc)
            raise
        self._finish(span, started, "shard.queries", len(routes),
                     len(starts), dropped, failed,
                     status="hit" if starts else "miss",
                     occurrences=len(starts))
        return self._result(starts, degraded, failed)

    def count(self, pattern, limit=None, cancel=None):
        """Number of occurrences (``find_all`` semantics exactly)."""
        return len(self.find_all(pattern, limit, cancel))

    def batch_find_all(self, patterns, threads=1, limit=None,
                       executor=None, cancel=None, degraded=None):
        """Batched multi-pattern query with per-shard fan-out.

        Each shard resolves the whole pattern set with one shared
        backbone scan (:func:`repro.core.batch.batch_find_all`); shards
        run concurrently on ``executor`` when given (authoritative,
        ``threads`` ignored — same precedence as the flat batch path),
        else on a temporary pool of ``threads`` workers, else serially.
        Merging rebases and deduplicates exactly like :meth:`find_all`.

        In degraded mode (``degraded=`` overriding the index default)
        failed shards are skipped: every ``BatchMatch.starts`` is then
        a :class:`~repro.resilience.PartialResult` carrying the batch's
        ``failed_shards``, and a pattern whose only occurrences lived
        on a failed shard reports ``miss`` with ``complete=False``.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        _batch.check_executor_open(executor)
        if cancel is not None:
            cancel.poll()
        if degraded is None:
            degraded = self.degraded
        patterns = list(patterns)
        for pattern in patterns:
            if pattern == "":
                raise SearchError(
                    "find_all of the empty pattern is ill-defined")
            self._check_pattern(pattern)
        span, started = self._begin("shard.batch_find_all",
                                    patterns=len(patterns))
        failed = {}

        def batch(index, patterns, bound, cancel):
            return _batch.batch_find_all(
                index, patterns, threads=1, limit=bound,
                cancel=cancel.child() if cancel is not None else None)

        try:
            routes = self._routes(min(map(len, patterns), default=1),
                                  limit, span)
            if len(routes) > 1 and executor is None and threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    answers = list(self._answers(
                        routes, batch, patterns, cancel, degraded,
                        failed, span, pool.map))
            else:
                answers = list(self._answers(
                    routes, batch, patterns, cancel, degraded, failed,
                    span, executor.map if len(routes) > 1
                    and executor is not None else map))
        except BaseException as exc:
            self._fail(span, exc)
            raise

        results = []
        kept = dropped = 0
        for j, pattern in enumerate(patterns):
            if self.alphabet.try_encode(pattern) is None:
                results.append(BatchMatch(
                    pattern, self._result([], degraded, failed),
                    "alphabet-miss"))
                continue
            starts, lost = self._merge(
                (shard, local[j].starts) for shard, local in answers)
            kept += len(starts)
            dropped += lost
            results.append(BatchMatch(
                pattern, self._result(starts, degraded, failed),
                "hit" if starts else "miss"))
        self._finish(span, started, "shard.batches", len(routes), kept,
                     dropped, failed, status="done")
        return results

    # -- growth --------------------------------------------------------

    def extend(self, text):
        """Append ``text``; the tail shard owns every new character.

        Publication order keeps lock-free snapshot readers consistent:
        sealed shards still draining their overlap are fed first, then
        the tail, and only then does the global length advance — a
        reader holding a limit taken before the call never follows an
        edge into half-appended data, exactly as on a flat in-memory
        index. When ``split_threshold`` is set and the tail's owned
        span reaches it, the tail is sealed (its overlap drains from
        future extends) and a fresh empty tail shard is started.
        """
        if self.layer == "packed":
            raise ConstructionError(
                "packed shards are immutable; extend the memory layer "
                "and re-freeze")
        if not text:
            return
        if self.alphabet.try_encode(text) is None:
            # Match SpineIndex.extend: foreign characters are a hard
            # error (AlphabetError) before any shard mutates.
            self.alphabet.encode(text)
        n0 = self._len
        grown = len(text)
        for i, shard in enumerate(self._shards[:-1]):
            if shard.pending_overlap <= 0:
                continue
            want_from = shard.start + self._local_len(i, shard)
            want_to = (shard.start + shard.owned_len + self.overlap)
            lo, hi = max(want_from, n0), min(want_to, n0 + grown)
            if lo < hi:
                self._feed(i, shard, text[lo - n0:hi - n0])
            shard.pending_overlap = want_to - (
                shard.start + self._local_len(i, shard))
        tail_id = len(self._shards) - 1
        tail = self._shards[tail_id]
        self._feed(tail_id, tail, text)
        tail.owned_len += grown
        self._len = n0 + grown
        registry = get_registry()
        if registry.enabled:
            registry.counter("shard.extend.chars").inc(grown)
        if (self.split_threshold is not None
                and tail.owned_len >= self.split_threshold):
            self._split_tail()

    def _local_len(self, i, shard):
        """Logical local length of shard ``i``: its index length, or —
        while quarantined — the end of its log, which keeps growing so
        the rebuild catches up."""
        wal = getattr(shard.index, "wal", None)
        if wal is None or i not in self._quarantined:
            return len(shard.index)
        return max(len(shard.index), wal.last_lsn)

    @staticmethod
    def _hand_over_log(path, old_generation, rebuilt, codes):
        """Hand the log of the page file at ``path`` over from
        checkpoint ``old_generation`` to the ``rebuilt`` pages holding
        ``codes`` — restarted empty if its text disagrees with them
        (the shard was extended with its log disabled)."""
        if not os.path.exists(wal_path_for(path)):
            return
        log = WriteAheadLog(wal_path_for(path),
                            base_generation=old_generation,
                            checkpoint_n=len(codes))
        try:
            if any(r.payload[:len(codes) - r.start]
                   != codes[r.start:r.lsn]
                   for r in log.recovered if r.start < len(codes)):
                log.close()
                log = WriteAheadLog(log.path, fresh=True)
            log.stamp(rebuilt.generation)
        finally:
            log.close()

    @staticmethod
    def _logged_text(shard, start, stop):
        """Shard text ``[start, stop)`` from its attached log (one not
        attached may disagree with the pages), or ``None``."""
        wal = getattr(shard.index, "wal", None)
        if wal is None:
            return None
        codes = scan_wal(wal.path).codes(start, stop)
        return None if codes is None else shard.index.alphabet.decode(
            codes)

    def _feed(self, i, shard, piece):
        """Append ``piece`` to one shard — to its index, or, while it
        is quarantined, to its write-ahead log only (the text reaches
        the index via the rebuild; a shard without a log keeps feeding
        its index)."""
        if not piece:
            return
        if i in self._quarantined and getattr(shard.index, "wal", None):
            with self._repair_lock:
                if i in self._quarantined:
                    shard.index.wal.append(
                        self.alphabet.encode(piece),
                        shard.index.generation,
                        self._local_len(i, shard) + len(piece))
                    return
            # Repair finished while we waited: fall through and feed
            # the (rebuilt) index normally.
        shard.index.extend(piece)

    def _split_tail(self):
        """Seal the tail and start a fresh empty one after it."""
        tail = self._shards[-1]
        tail.pending_overlap = self.overlap
        new_id = len(self._shards)
        new_start = tail.start + tail.owned_len
        if self.layer == "disk":
            from repro.disk import DiskSpineIndex

            new_path = (os.path.join(self.path,
                                     f"shard-{new_id}.pages")
                        if self.path is not None else None)
            index = DiskSpineIndex(alphabet=self.alphabet,
                                   path=new_path, **self._disk_options)
        else:
            from repro.core.index import SpineIndex

            index = SpineIndex(alphabet=self.alphabet)
        shard = _Shard(index, new_start, 0)
        if self._concurrent:
            index.enable_concurrent_reads()
        if self._breakers is not None:
            self._breakers.append(
                CircuitBreaker(f"shard-{new_id}",
                               **self._breaker_config))
        # Fully initialized before it becomes visible to readers.
        self._shards.append(shard)
        registry = get_registry()
        if registry.enabled:
            registry.counter("shard.splits").inc()

    # -- persistence ---------------------------------------------------

    def stats(self):
        """A plain-dict description (CLI ``repro shard stats``)."""
        return {
            "layer": self.layer,
            "length": self._len,
            "max_pattern_len": self.max_pattern_len,
            "overlap": self.overlap,
            "split_threshold": self.split_threshold,
            "breakers": ([b.snapshot() for b in self._breakers]
                         if self._breakers is not None else None),
            "quarantined": self.quarantined_shards,
            "shards": [
                {
                    "id": i,
                    "start": s.start,
                    "owned_len": s.owned_len,
                    "local_len": len(s.index),
                    "pending_overlap": s.pending_overlap,
                    "quarantined": i in self._quarantined,
                }
                for i, s in enumerate(self._shards)
            ],
        }

    def save(self, path=None):
        """Persist to a directory: per-shard files plus a manifest.

        Memory shards serialize to ``shard-<i>.spne``; disk shards
        checkpoint their own page files (which must already live in
        the directory). Packed shards cannot be serialized — save the
        memory layer and :meth:`load` it as packed.
        """
        path = path if path is not None else self.path
        if path is None:
            raise StorageError("no directory to save the sharded "
                               "index to")
        if self.layer == "packed":
            raise StorageError(
                "packed shards cannot be serialized; save the memory "
                "layer and load it with layer='packed'")
        os.makedirs(path, exist_ok=True)
        entries = []
        for i, shard in enumerate(self._shards):
            if self.layer == "disk":
                shard.index.checkpoint()
                pagefile = getattr(shard.index.pagefile, "_path", None)
                if pagefile is None:
                    raise StorageError(
                        "in-memory disk shards cannot be saved; build "
                        "with a path")
                fname = os.path.basename(pagefile)
            else:
                from repro.core.serialize import save_index

                fname = f"shard-{i}.spne"
                save_index(shard.index, os.path.join(path, fname))
            entries.append({
                "id": i,
                "file": fname,
                "start": shard.start,
                "owned_len": shard.owned_len,
                "pending_overlap": shard.pending_overlap,
            })
        manifest = {
            "format": _MANIFEST_VERSION,
            "layer": self.layer,
            "length": self._len,
            "max_pattern_len": self.max_pattern_len,
            "split_threshold": self.split_threshold,
            "alphabet": {
                "symbols": self.alphabet.symbols,
                "name": self.alphabet.name,
                "case_insensitive": self.alphabet.case_insensitive,
                "separator_code": self.alphabet.separator_code,
            },
            "shards": entries,
        }
        tmp = os.path.join(path, _MANIFEST + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
        os.replace(tmp, os.path.join(path, _MANIFEST))
        self.path = path

    @classmethod
    def load(cls, path, layer=None, **disk_options):
        """Reopen a directory written by :meth:`save`.

        ``layer`` may upgrade a saved memory layout to ``"packed"``
        (shards are frozen after loading); a disk layout always
        reopens as disk.
        """
        manifest_path = os.path.join(path, _MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise StorageError(f"{path}: not a sharded index "
                               "(no manifest)")
        except json.JSONDecodeError as exc:
            raise StorageError(
                f"{path}: corrupt shard manifest: {exc}") from exc
        if manifest.get("format") != _MANIFEST_VERSION:
            raise StorageError(
                f"unsupported shard manifest format "
                f"{manifest.get('format')!r}")
        saved_layer = manifest["layer"]
        want = layer if layer is not None else saved_layer
        if saved_layer == "disk" and want != "disk":
            raise StorageError("a disk shard layout reopens as disk")
        if saved_layer == "memory" and want == "disk":
            raise StorageError("a memory shard layout cannot reopen "
                               "as disk; rebuild with layer='disk'")
        spec = manifest["alphabet"]
        alphabet = Alphabet(spec["symbols"], name=spec["name"],
                            case_insensitive=spec["case_insensitive"])
        if spec.get("separator_code") is not None:
            alphabet.separator_code = spec["separator_code"]
        shards = []
        for entry in manifest["shards"]:
            fpath = os.path.join(path, entry["file"])
            if saved_layer == "disk":
                from repro.disk import DiskSpineIndex

                index = DiskSpineIndex.open(fpath, alphabet=alphabet,
                                            **disk_options)
            else:
                from repro.core.serialize import load_index

                index = load_index(fpath)
                if want == "packed":
                    from repro.core.packed import PackedSpineIndex

                    index = PackedSpineIndex.from_index(index)
            shards.append(_Shard(index, entry["start"],
                                 entry["owned_len"],
                                 entry.get("pending_overlap", 0)))
        index = cls(shards, alphabet, manifest["max_pattern_len"],
                    want, manifest["length"], path=path,
                    split_threshold=manifest.get("split_threshold"),
                    disk_options=disk_options)
        if want == "disk":
            # WAL replay can reopen a shard *ahead* of the saved
            # manifest (extends since the last save() are durable
            # now); fold the replayed text back into the shard map so
            # lengths and overlap accounting stay consistent.
            tail = index._shards[-1]
            extra = len(tail.index) - tail.owned_len
            if extra > 0:
                tail.owned_len += extra
                index._len += extra
            for shard in index._shards[:-1]:
                if shard.pending_overlap > 0:
                    shard.pending_overlap = max(
                        0, shard.owned_len + index.overlap
                        - len(shard.index))
        return index

    def close(self):
        """Close disk shards (no-op on the in-memory layers)."""
        for shard in self._shards:
            closer = getattr(shard.index, "close", None)
            if closer is not None:
                closer()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
