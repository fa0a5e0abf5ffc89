"""Disk substrate for the disk-resident experiments (Sections 6.2).

The paper's disk numbers were produced on a 2003-era IDE disk with
synchronous (``O_SYNC``) writes. This package provides the equivalent
building blocks:

* :class:`repro.storage.pager.PageFile` — fixed-size pages over a real
  file (or memory), with every physical read/write counted;
* :class:`repro.storage.buffer.BufferPool` — a bounded cache of pages
  with pluggable replacement (LRU, CLOCK, and the paper's suggested
  "retain the top of the Link Table" policy, PinTop);
* :class:`repro.storage.disk.DiskModel` — seek/transfer cost model that
  turns counted I/Os into modeled seconds, distinguishing sequential
  runs from random accesses and charging synchronous writes a forced
  seek;
* :mod:`repro.storage.failpoints` — deterministic fault injection
  (torn/short/transient/crash) wired into the pager and buffer pool,
  so the crash-safety of the layers above is provable by test;
* :mod:`repro.storage.fsck` — offline integrity scan of a persisted
  disk index (metadata slots, generation chain, per-page CRCs, region
  page-list sanity) behind the ``repro fsck`` CLI;
* :mod:`repro.storage.wal` — append-only CRC32-framed write-ahead log
  of extend records, kept across checkpoints: every ``extend()``
  since the last checkpoint survives a crash (replayed on reopen), and
  the whole log is a shard's repair source;
* :mod:`repro.storage.scrub` — rate-limited background verification of
  committed pages, with online quarantine-and-rebuild of corrupt
  shards in a sharded index.
"""

from repro.storage.disk import DiskModel
from repro.storage.failpoints import (
    CrashInjected, clear_failpoints, fail_at, failpoints_armed,
    get_failpoints)
from repro.storage.metrics import IOMetrics
from repro.storage.pager import PageFile
from repro.storage.buffer import (
    BufferPool, ClockPolicy, LRUPolicy, PinTopPolicy, ReadWriteLock)
from repro.storage.wal import (
    WAL_SUFFIX, FSYNC_POLICIES, WriteAheadLog, scan_wal, wal_path_for)
from repro.storage.scrub import Scrubber, scrub_index

__all__ = [
    "DiskModel",
    "IOMetrics",
    "PageFile",
    "BufferPool",
    "LRUPolicy",
    "ClockPolicy",
    "PinTopPolicy",
    "ReadWriteLock",
    "CrashInjected",
    "clear_failpoints",
    "fail_at",
    "failpoints_armed",
    "get_failpoints",
    "WAL_SUFFIX",
    "FSYNC_POLICIES",
    "WriteAheadLog",
    "scan_wal",
    "wal_path_for",
    "Scrubber",
    "scrub_index",
]
