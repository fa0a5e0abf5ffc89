"""Background page scrubbing: find corruption before a query does.

The per-page CRC trailers from the crash-safe v3 format (PR 4) verify
on every *read* — but a page nobody reads can rot silently until the
day a query lands on it.  :class:`Scrubber` walks the committed pages
of a disk index on a timer, re-reading each through the pager's
verifying path, so latent corruption surfaces as a metric and a trace
event instead of a user-facing error.

Scrubbing is deliberately gentle:

* only **committed** pages are checked — they are the ones guaranteed
  to be fully written and CRC-stamped on disk (copy-on-write keeps
  them byte-stable between checkpoints), so a sweep never misreads a
  page the writer is still composing;
* batches run under the buffer pool's *read* lock and the sweep
  restarts if a checkpoint advances the generation mid-sweep — the
  page set it was walking is stale then;
* ``pages_per_second`` rate-limits the extra I/O so a scrub never
  competes with serving traffic for the disk.

Self-healing (the sharded layer): when the scrubbed index is a
:class:`~repro.shard.index.ShardedSpineIndex` with breakers enabled,
a shard that fails verification is **quarantined** — scatter-gather
skips it, degraded queries report it in ``failed_shards`` — and
rebuilt online from its log
(:meth:`~repro.shard.index.ShardedSpineIndex.repair_shard`); the shard
flips back to healthy the moment the rebuilt index is swapped in, with
no restart.

Metrics (``spine_scrub_*`` in the Prometheus exposition): counters
``scrub.sweeps`` / ``scrub.pages`` / ``scrub.corrupt_pages`` /
``scrub.errors`` / ``scrub.repairs`` / ``scrub.repair_failures``,
gauges ``scrub.last_sweep_pages`` / ``scrub.last_sweep_corrupt``.
Trace events use the ``storage.scrub`` span.
"""

from __future__ import annotations

import threading
import time

from repro.exceptions import CorruptPageError, StorageError
from repro.obs import get_registry
from repro.obs.trace import get_tracer

__all__ = ["Scrubber", "scrub_index"]


def _chunks(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


class Scrubber:
    """Rate-limited background verification of a disk-resident index.

    Parameters
    ----------
    index:
        A :class:`~repro.disk.DiskSpineIndex`, or a
        :class:`~repro.shard.ShardedSpineIndex` whose shards are disk
        indexes (other layers scrub zero pages — nothing persistent to
        verify).
    interval:
        Seconds between sweeps when running as a thread.
    pages_per_batch:
        Pages verified per read-lock acquisition (small batches keep
        writers responsive).
    pages_per_second:
        I/O rate cap for the sweep; ``None`` runs unthrottled.
    repair:
        Quarantine-and-rebuild a corrupt shard (sharded index with
        breakers enabled only; see the module docstring).
    """

    def __init__(self, index, interval=30.0, pages_per_batch=32,
                 pages_per_second=None, repair=True):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if pages_per_batch < 1:
            raise ValueError("pages_per_batch must be >= 1")
        self.index = index
        self.interval = interval
        self.pages_per_batch = pages_per_batch
        self.pages_per_second = pages_per_second
        self.repair = repair
        self.sweeps = 0
        self.last_report = None
        self._stop = threading.Event()
        self._thread = None

    # -- target discovery (duck-typed like repro.obs.health) -----------

    def _targets(self):
        """``[(shard_id_or_None, disk_index), ...]`` to verify."""
        index = self.index
        shards = getattr(index, "_shards", None)
        if shards is not None and hasattr(index, "shard_count"):
            quarantined = set(getattr(index, "quarantined_shards", ()))
            return [(i, s.index) for i, s in enumerate(shards)
                    if i not in quarantined
                    and getattr(s.index, "pagefile", None) is not None
                    and getattr(s.index, "pool", None) is not None]
        if (getattr(index, "pagefile", None) is not None
                and getattr(index, "pool", None) is not None):
            return [(None, index)]
        return []

    # -- one sweep ------------------------------------------------------

    def _throttle(self, pages):
        if self.pages_per_second:
            time.sleep(pages / self.pages_per_second)

    def _scrub_one(self, index):
        """``(pages_checked, corrupt_page_ids, errors, aborted)`` for
        one disk index; ``aborted`` means the committed-page snapshot
        went stale (checkpoint mid-sweep) or the file closed."""
        ledger = getattr(index, "_ledger", None)
        if ledger is None:
            return 0, [], [], False   # legacy file: no CRC trailers
        pagefile = index.pagefile
        try:
            with index.pool.rwlock.read_locked():
                gen0 = index.generation
                pages = sorted(ledger.committed)
        except Exception:
            return 0, [], [], True
        checked = 0
        corrupt = []
        errors = []
        for batch in _chunks(pages, self.pages_per_batch):
            try:
                with index.pool.rwlock.read_locked():
                    if index.generation != gen0:
                        return checked, corrupt, errors, True
                    for page_id in batch:
                        try:
                            pagefile.read_page(page_id)
                        except CorruptPageError:
                            corrupt.append(page_id)
                        except StorageError as exc:
                            errors.append(f"page {page_id}: {exc}")
                        checked += 1
            except StorageError:
                return checked, corrupt, errors, True
            self._throttle(len(batch))
        return checked, corrupt, errors, False

    def scrub_once(self):
        """Run one full sweep and return a JSON-ready report."""
        registry = get_registry()
        metrics = registry if registry.enabled else None
        tracer = get_tracer()
        span = (tracer.begin("storage.scrub",
                             targets=len(self._targets()))
                if tracer.enabled else None)
        report = {
            "pages_checked": 0,
            "corrupt": [],       # [{"shard": i|None, "pages": [...]}]
            "errors": [],
            "aborted_targets": 0,
            "repaired_shards": [],
            "repair_failed_shards": [],
        }
        for shard_id, target in self._targets():
            checked, corrupt, errors, aborted = self._scrub_one(target)
            report["pages_checked"] += checked
            report["errors"].extend(errors)
            if aborted:
                report["aborted_targets"] += 1
            if not corrupt:
                continue
            report["corrupt"].append({"shard": shard_id,
                                      "pages": corrupt})
            if span is not None:
                span.event("corrupt-detected", shard=shard_id,
                           pages=len(corrupt))
            if (shard_id is not None and self.repair
                    and getattr(self.index, "breakers_enabled", False)):
                self._repair(shard_id, corrupt, report, span)
        if metrics is not None:
            metrics.counter("scrub.sweeps").inc()
            metrics.counter("scrub.pages").inc(report["pages_checked"])
            corrupt_pages = sum(len(c["pages"])
                                for c in report["corrupt"])
            if corrupt_pages:
                metrics.counter("scrub.corrupt_pages").inc(
                    corrupt_pages)
            if report["errors"]:
                metrics.counter("scrub.errors").inc(
                    len(report["errors"]))
            metrics.gauge("scrub.last_sweep_pages").set(
                report["pages_checked"])
            metrics.gauge("scrub.last_sweep_corrupt").set(
                corrupt_pages)
        if span is not None:
            tracer.finish(
                span,
                status="corrupt" if report["corrupt"] else "clean",
                pages=report["pages_checked"])
        self.sweeps += 1
        self.last_report = report
        return report

    def _repair(self, shard_id, corrupt_pages, report, span):
        """Quarantine + online rebuild of one corrupt shard."""
        registry = get_registry()
        metrics = registry if registry.enabled else None
        self.index.quarantine(
            shard_id,
            reason=f"scrub: {len(corrupt_pages)} corrupt pages")
        try:
            self.index.repair_shard(shard_id)
        except Exception as exc:
            # The shard stays quarantined (degraded but safe); the
            # next sweep retries nothing — repair needs operator or
            # source-data intervention at this point.
            report["repair_failed_shards"].append(shard_id)
            report["errors"].append(
                f"shard {shard_id} repair failed: {exc}")
            if metrics is not None:
                metrics.counter("scrub.repair_failures").inc()
            if span is not None:
                span.event("repair-failed", shard=shard_id,
                           error=type(exc).__name__)
            return
        report["repaired_shards"].append(shard_id)
        if metrics is not None:
            metrics.counter("scrub.repairs").inc()
        if span is not None:
            span.event("repaired", shard=shard_id)

    # -- background thread ---------------------------------------------

    def start(self):
        """Run sweeps every :attr:`interval` seconds on a daemon
        thread (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-scrubber",
                                        daemon=True)
        self._thread.start()
        return self

    def _loop(self):
        while not self._stop.wait(self.interval):
            try:
                self.scrub_once()
            except Exception:
                # A sweep must never kill the thread; the failure is
                # visible as the scrub.errors counter staying flat
                # while sweeps stop advancing.
                registry = get_registry()
                if registry.enabled:
                    registry.counter("scrub.errors").inc()

    def stop(self):
        """Stop the background thread (idempotent; safe mid-sweep)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    def __repr__(self):
        running = self._thread is not None
        return (f"Scrubber({'running' if running else 'idle'}, "
                f"interval={self.interval}, sweeps={self.sweeps})")


def scrub_index(index, pages_per_batch=32, pages_per_second=None,
                repair=False):
    """One-shot sweep of ``index`` (the ``repro scrub`` CLI core);
    returns the :meth:`Scrubber.scrub_once` report."""
    scrubber = Scrubber(index, interval=3600.0,
                        pages_per_batch=pages_per_batch,
                        pages_per_second=pages_per_second,
                        repair=repair)
    return scrubber.scrub_once()
