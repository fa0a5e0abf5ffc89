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

Snapshot semantics (``*_at`` methods) carry over shard-locally: the
global prefix of length ``L`` restricted to shard ``i`` is exactly the
local prefix of length ``clamp(L - start_i, 0, local_len)``, so the
Section 2.7 prefix property each shard already provides composes into
a lock-free consistent view of the whole — provided ``extend``
publishes in the right order (feed draining sealed shards, then the
tail, then advance the global length).
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

__all__ = ["ShardedSpineIndex"]

_MANIFEST = "manifest.json"
_MANIFEST_VERSION = 1


class _SpanJournal:
    """Durable copy of one disk shard's local text — the repair source.

    A string index can always be rebuilt from the text it indexes; the
    journal *keeps* that text (``shard-<i>.span`` next to the page
    file, or an in-memory buffer for pathless shards) so
    :meth:`ShardedSpineIndex.repair_shard` can reconstruct a shard
    whose page file went bad without trusting any of its pages.
    Appends mirror ``shard.index.extend`` calls exactly, journal
    first — on a crash the journal may run slightly ahead of the
    index, which :meth:`ShardedSpineIndex.load` reconciles.
    """

    __slots__ = ("path", "chars", "_fh", "_buf")

    def __init__(self, path=None, fresh=False):
        self.path = path
        self.chars = 0
        self._buf = None
        self._fh = None
        if path is None:
            self._buf = []
            return
        self._fh = open(path, "wb+" if fresh else "ab+")
        if not fresh:
            self._fh.seek(0)
            data = self._fh.read()
            if data:
                self.chars = len(data.decode("utf-8"))
        self._fh.seek(0, 2)

    def append(self, text):
        if not text:
            return
        if self._fh is not None:
            self._fh.write(text.encode("utf-8"))
            self._fh.flush()
        else:
            self._buf.append(text)
        self.chars += len(text)

    def read(self):
        """The full journalled text."""
        if self._fh is None:
            return "".join(self._buf)
        self._fh.flush()
        self._fh.seek(0)
        data = self._fh.read()
        self._fh.seek(0, 2)
        return data.decode("utf-8")

    def rewrite(self, text):
        """Replace the journal contents wholesale (reconciliation)."""
        if self._fh is None:
            self._buf = [text]
        else:
            self._fh.seek(0)
            self._fh.truncate(0)
            self._fh.write(text.encode("utf-8"))
            self._fh.flush()
        self.chars = len(text)

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


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
        #: ``{shard_id: _SpanJournal}`` repair sources (disk layer).
        self._journals = {}
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
        if layer == "disk":
            for i, spec in enumerate(specs):
                journal = _SpanJournal(index._journal_path(i),
                                       fresh=True)
                journal.append(spec.text)
                index._journals[i] = journal
        if path is not None and layer != "packed":
            index.save(path)
        return index

    def _journal_path(self, shard_id):
        """Span-journal path of one shard (``None`` keeps it in
        memory, mirroring a pathless disk shard)."""
        if self.path is None:
            return None
        return os.path.join(self.path, f"shard-{shard_id}.span")

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
            enable = getattr(shard.index, "enable_concurrent_reads",
                             None)
            if enable is not None:
                enable()

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
        shard land in its span journal only, so the rebuild picks them
        up.  Idempotent.
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

        The replacement index is constructed from the shard's **span
        journal** — the durable copy of its local text, which never
        trusts the corrupt page file — in a sidecar ``.rebuild`` page
        file, caught up with any extends that arrived mid-rebuild,
        atomically moved over the old file, and swapped in; only then
        is the quarantine lifted (and the shard's breaker reset).
        Queries keep running against the other shards the whole time —
        in degraded mode they return ``PartialResult(complete=False)``
        until the swap, complete answers after.

        Raises :class:`~repro.exceptions.StorageError` (shard stays
        quarantined) when no journal exists and the old index cannot
        yield its text — repair then needs the original source data.
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
        journal = self._journals.get(shard_id)
        if journal is not None:
            source = journal.read()
        else:
            # Best effort without a journal: the old index's CL region
            # may still be readable when the corruption hit elsewhere.
            try:
                source = shard.index.text
            except Exception as exc:
                raise StorageError(
                    f"shard {shard_id}: no span journal and the old "
                    f"index cannot be read back ({exc}); repair needs "
                    "the original source text") from exc
        old_path = getattr(shard.index.pagefile, "_path", None)
        build_path = (old_path + ".rebuild"
                      if old_path is not None else None)
        new_index = DiskSpineIndex(alphabet=self.alphabet,
                                   path=build_path,
                                   **self._disk_options)
        try:
            new_index.extend(source)
            with self._repair_lock:
                if journal is not None and journal.chars > len(new_index):
                    # Extends that arrived while we were rebuilding.
                    new_index.extend(journal.read()[len(new_index):])
                if old_path is not None:
                    new_index.close(checkpoint=True)
                    shard.index.abort()
                    os.replace(build_path, old_path)
                    try:
                        os.replace(build_path + ".wal",
                                   old_path + ".wal")
                    except FileNotFoundError:
                        pass
                    new_index = DiskSpineIndex.open(
                        old_path, alphabet=self.alphabet,
                        **self._disk_options)
                else:
                    new_index.checkpoint()
                    shard.index.abort()
                if self._concurrent:
                    enable = getattr(new_index,
                                     "enable_concurrent_reads", None)
                    if enable is not None:
                        enable()
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

    def _guard(self, i, fn, degraded, failed):
        """Run one shard's query under its breaker.

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
            result = fn()
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

    def contains(self, pattern):
        """True iff ``pattern`` occurs (cap-checked; clean ``False`` on
        foreign characters, ``True`` for the empty pattern)."""
        return self.contains_at(pattern, self._len)

    def contains_at(self, pattern, limit, cancel=None):
        """``contains`` evaluated against the length-``limit`` prefix.

        Always strict: a boolean cannot express "some shards did not
        answer", so shard failures (and open breakers) raise rather
        than risk a wrong ``False``.
        """
        if pattern == "":
            return True
        self._check_pattern(pattern)
        if self.alphabet.try_encode(pattern) is None:
            return False
        m = len(pattern)
        for i, shard in enumerate(self._shards):
            bound = self._local_limit(shard, limit)
            if bound < m:
                continue
            hit = self._guard(
                i,
                lambda: search.contains(shard.index, pattern, bound,
                                        cancel),
                degraded=False, failed={})
            if hit:
                return True
        return False

    def find_all(self, pattern):
        """Sorted global starts of all occurrences — byte-identical to
        the unsharded index's answer for patterns within the cap."""
        return self.find_all_at(pattern, self._len)

    def find_all_at(self, pattern, limit, cancel=None, degraded=None):
        """``find_all`` evaluated against the length-``limit`` prefix.

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
        self._check_pattern(pattern)
        if degraded is None:
            degraded = self.degraded
        registry = get_registry()
        metrics = registry if registry.enabled else None
        tracer = get_tracer()
        span = (tracer.begin("shard.find_all", pattern=pattern,
                             shards=len(self._shards))
                if tracer.enabled else None)
        if metrics is not None:
            started = time.perf_counter()
        try:
            starts, routed, dropped, failed = self._scatter_find(
                pattern, limit, span, cancel=cancel, degraded=degraded)
        except BaseException as exc:
            if span is not None:
                tracer.finish(span, status="error",
                              error=type(exc).__name__)
            raise
        if metrics is not None:
            metrics.counter("shard.queries").inc()
            metrics.counter("shard.route.fanout").inc(routed)
            metrics.counter("shard.merge.dropped").inc(dropped)
            if failed:
                metrics.counter("resilience.degraded.queries").inc()
                metrics.counter("resilience.degraded.failed_shards") \
                    .inc(len(failed))
            metrics.observe_latency("shard.query",
                                    time.perf_counter() - started)
        if span is not None:
            tracer.finish(span, status="hit" if starts else "miss",
                          occurrences=len(starts),
                          failed_shards=sorted(failed))
        if degraded:
            return PartialResult(starts, complete=not failed,
                                 failed_shards=sorted(failed),
                                 errors=failed)
        return starts

    def _scatter_find(self, pattern, limit, span=None, cancel=None,
                      degraded=False):
        """The scatter-gather core: per-shard hits, rebase, dedup.

        Returns ``(merged, routed, dropped, failed)`` with ``failed``
        a ``{shard_id: error}`` dict (always empty in strict mode —
        failures raise there instead).
        """
        if self.alphabet.try_encode(pattern) is None:
            return [], 0, 0, {}
        m = len(pattern)
        merged = []
        routed = dropped = 0
        failed = {}
        for i, shard in enumerate(self._shards):
            bound = self._local_limit(shard, limit)
            if bound < m:
                continue
            routed += 1
            if span is not None:
                span.event("shard-route", shard=i, start=shard.start,
                           local_limit=bound)
            local = self._guard(
                i,
                lambda: search.find_all(shard.index, pattern, bound,
                                        cancel),
                degraded, failed)
            if i in failed:
                if span is not None:
                    span.event("shard-degraded", shard=i,
                               error=type(failed[i]).__name__)
                continue
            kept = [s + shard.start for s in local
                    if s < shard.owned_len]
            dropped += len(local) - len(kept)
            merged.extend(kept)
        if span is not None:
            span.event("shard-merge", kept=len(merged),
                       dropped=dropped, routed=routed,
                       failed=len(failed))
        return merged, routed, dropped, failed

    def count(self, pattern):
        """Number of occurrences (``find_all`` semantics exactly)."""
        return len(self.find_all(pattern))

    def find_first(self, pattern):
        """Global start of the first occurrence, or ``None``.

        Shards are scanned in order; the first shard whose earliest
        local hit lands in its owned span yields the answer (a hit in
        the overlap region belongs to — and recurs in — a later shard).
        """
        if pattern == "":
            return 0
        self._check_pattern(pattern)
        if self.alphabet.try_encode(pattern) is None:
            return None
        m = len(pattern)
        for shard in self._shards:
            bound = self._local_limit(shard, self._len)
            if bound < m:
                continue
            local = shard.index.find_first(pattern)
            if local is not None and local < shard.owned_len:
                return local + shard.start
        return None

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
        bound_limit = self._len if limit is None else min(limit,
                                                          self._len)
        registry = get_registry()
        metrics = registry if registry.enabled else None
        tracer = get_tracer()
        span = (tracer.begin("shard.batch_find_all",
                             patterns=len(patterns),
                             shards=len(self._shards))
                if tracer.enabled else None)
        if metrics is not None:
            started = time.perf_counter()

        shards = list(self._shards)
        bounds = [self._local_limit(s, bound_limit) for s in shards]
        live = [i for i, b in enumerate(bounds) if b > 0]
        if span is not None:
            for i in live:
                span.event("shard-route", shard=i,
                           start=shards[i].start, local_limit=bounds[i])

        failed = {}

        def _one(i):
            return self._guard(
                i,
                lambda: _batch.batch_find_all(
                    shards[i].index, patterns, threads=1,
                    limit=bounds[i],
                    cancel=cancel.child() if cancel is not None
                    else None),
                degraded, failed)

        try:
            if len(live) > 1 and executor is not None:
                per_shard = dict(zip(live, executor.map(_one, live)))
            elif len(live) > 1 and threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    per_shard = dict(zip(live, pool.map(_one, live)))
            else:
                per_shard = {i: _one(i) for i in live}
        except BaseException as exc:
            if span is not None:
                tracer.finish(span, status="error",
                              error=type(exc).__name__)
            raise

        failed_ids = sorted(failed)
        complete = not failed

        def _starts(merged):
            if degraded:
                return PartialResult(merged, complete=complete,
                                     failed_shards=failed_ids,
                                     errors=failed)
            return merged

        results = []
        dropped = 0
        for j, pattern in enumerate(patterns):
            if self.alphabet.try_encode(pattern) is None:
                results.append(BatchMatch(pattern, _starts([]),
                                          "alphabet-miss"))
                continue
            merged = []
            for i in live:
                if i in failed:
                    continue
                shard = shards[i]
                local = per_shard[i][j].starts
                kept = [s + shard.start for s in local
                        if s < shard.owned_len]
                dropped += len(local) - len(kept)
                merged.extend(kept)
            results.append(BatchMatch(pattern, _starts(merged),
                                      "hit" if merged else "miss"))
        if span is not None:
            span.event("shard-merge", routed=len(live),
                       dropped=dropped, failed=len(failed))
        if metrics is not None:
            metrics.counter("shard.batches").inc()
            metrics.counter("shard.route.fanout").inc(len(live))
            metrics.counter("shard.merge.dropped").inc(dropped)
            if failed:
                metrics.counter("resilience.degraded.queries").inc()
                metrics.counter("resilience.degraded.failed_shards") \
                    .inc(len(failed))
            metrics.observe_latency("shard.query",
                                    time.perf_counter() - started)
        if span is not None:
            tracer.finish(span, status="done",
                          failed_shards=failed_ids)
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
        while quarantined with a journal — the journal length (the
        index stops receiving text then; the journal keeps growing so
        the rebuild catches up)."""
        journal = self._journals.get(i)
        if journal is not None and i in self._quarantined:
            return journal.chars
        return len(shard.index)

    def _feed(self, i, shard, piece):
        """Append ``piece`` to one shard: journal first (it is the
        repair source and must never lag), then the index — unless the
        shard is quarantined, in which case the text lands in the
        journal only and reaches the index via the rebuild."""
        if not piece:
            return
        journal = self._journals.get(i)
        if journal is not None and i in self._quarantined:
            with self._repair_lock:
                if i in self._quarantined:
                    journal.append(piece)
                    return
            # Repair finished while we waited: fall through and feed
            # the (rebuilt) index normally.
        if journal is not None:
            journal.append(piece)
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
        if self.layer == "disk":
            self._journals[new_id] = _SpanJournal(
                self._journal_path(new_id), fresh=True)
        if self._concurrent:
            enable = getattr(index, "enable_concurrent_reads", None)
            if enable is not None:
                enable()
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
            for i, shard in enumerate(index._shards):
                jpath = index._journal_path(i)
                if jpath is None or not os.path.exists(jpath):
                    # Directories saved before span journals existed:
                    # repair falls back to the shard's own text.
                    continue
                journal = _SpanJournal(jpath)
                if journal.chars != len(shard.index):
                    # The journal is appended before the index, so a
                    # crash can leave it ahead (or a WAL-disabled
                    # reopen behind); the reopened index is the
                    # durable truth — resync the journal to it.
                    journal.rewrite(shard.index.text)
                index._journals[i] = journal
        return index

    def close(self):
        """Close disk shards and span journals (no-op on the
        in-memory layers)."""
        for shard in self._shards:
            closer = getattr(shard.index, "close", None)
            if closer is not None:
                closer()
        for journal in self._journals.values():
            journal.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
