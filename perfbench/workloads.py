"""The four benchmark workloads.

Each workload generates every input from ``--seed`` in :meth:`setup`
(the library only ever receives the generated strings), exposes a pool
of operations ``(kind, is_read, payload)`` that the load loop cycles
through, executes one operation with :meth:`execute`, and checks the
recorded answers against an oracle that does not use the code under
test (:meth:`verify`). :meth:`count_pass` runs a fixed prefix of the
pool with the library's metrics registry on and returns the
hardware-free counts.

Calls that the traced run should see go through module attributes
(``core_matching.maximal_matches``, ``core_batch.batch_find_all``), so
the wrappers of :mod:`spans` intercept them.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter

from repro import obs
from repro.core import batch as core_batch
from repro.core import matching as core_matching
from repro.disk import DiskSpineIndex
from repro.serve import QueryService
from repro.sequences import derive_sequence, generate_dna
from repro.shard import ShardedSpineIndex
from repro.storage.wal import wal_path_for

from common import (cut, occurrences, point_mutate, reference_text,
                    timed_build)
from spans import counting_scan_nodes


class Workload:
    """Shared plumbing; subclasses fill in the workload itself."""

    name = ""
    #: Ops of the pool run (twice) by :meth:`count_pass`.
    count_ops = 0

    def __init__(self, seed, chars, workdir):
        self.seed = seed
        self.chars = chars
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pool = []
        #: Characters indexed by the construction :meth:`setup` timed.
        self.build_chars = 0

    def setup(self, speed):
        """Generate inputs and build the index; returns the
        reference-speed seconds spent in index construction (``speed``
        is a ``common.Speed``)."""
        raise NotImplementedError

    def starts_round(self, k):
        return False

    def start_round(self, k):
        pass

    def execute(self, kind, payload):
        raise NotImplementedError

    def record(self, k, answer):
        """What the load loop keeps of an answer for :meth:`verify`."""
        return answer

    def oracle(self, k):
        raise NotImplementedError

    def verify(self, answers):
        """Number of answers that differ from the oracle."""
        expected = {}
        wrong = 0
        for k, answer in answers:
            if k not in expected:
                expected[k] = self.oracle(k)
            if answer != expected[k]:
                wrong += 1
        return wrong

    def build_chars_per_s(self, phase, build_s):
        return self.build_chars / build_s

    def count_pass(self):
        """Run the first :attr:`count_ops` ops with metrics on; returns
        the registry counters plus the workload's own counts."""
        totals = Counter(resolve_calls=0, resolve_scan_nodes=0)
        registry = obs.enable_metrics(reset=True)
        try:
            with counting_scan_nodes(totals):
                extra = self._count_ops()
            counts = dict(registry.snapshot()["counters"])
        finally:
            obs.disable_metrics()
        counts.update(totals)
        counts.update(extra)
        return counts

    def _count_ops(self):
        kinds = Counter()
        for k in range(self.count_ops):
            kind, read, payload = self.pool[k]
            self.execute(kind, payload)
            kinds["ops." + kind] += 1
            kinds["ops.read"] += read
        return dict(kinds)

    def describe(self):
        """Input facts recorded next to the results."""
        return {}

    def close(self):
        pass


class PointQuery(Workload):
    """Point queries on a flat in-memory :class:`SpineIndex`."""

    name = "point-query"
    POOL = 4096
    count_ops = 300

    def setup(self, speed):
        self.text = text = reference_text(self.chars)
        self.index, build_s = timed_build(text, speed)
        self.build_chars = len(text)
        rng = self.rng
        for _ in range(self.POOL):
            pattern = cut(text, rng, 8, 32)
            if rng.random() < 0.8:
                self.pool.append(("find_all", True, pattern))
            else:
                if rng.random() < 0.5:
                    pattern = point_mutate(pattern, rng)
                self.pool.append(("contains", True, pattern))
        return build_s

    def execute(self, kind, pattern):
        if kind == "find_all":
            return self.index.find_all(pattern)
        return self.index.contains(pattern)

    def oracle(self, k):
        kind, _, pattern = self.pool[k]
        if kind == "find_all":
            return occurrences(self.text, pattern)
        return pattern in self.text

    def describe(self):
        return {"text_chars": len(self.text), "pool_ops": self.POOL,
                "mix": "80% find_all 8-32 chars, 20% contains "
                       "(half point-mutated)",
                "loop": "closed, 1 client"}


def _maximal_events(lengths, min_length):
    """``(query_start, length)`` of every right-maximal match, the
    rule ``maximal_matches`` documents."""
    events = []
    m = len(lengths)
    for j, length in enumerate(lengths):
        if length < min_length:
            continue
        if j + 1 < m and lengths[j + 1] == length + 1:
            continue
        events.append((j - length + 1, length))
    return events


class StreamMatch(Workload):
    """Matching statistics + maximal matches of streamed chunks."""

    name = "stream-match"
    POOL = 1024
    CHUNK = 1000
    MIN_LENGTH = 20
    #: Pool entries whose matching statistics are checked against the
    #: brute-force oracle (the first ones every run executes).
    ORACLE_SAMPLES = 4
    count_ops = 64

    def setup(self, speed):
        self.text = text = reference_text(self.chars)
        self.index, build_s = timed_build(text, speed)
        self.build_chars = len(text)
        rng = self.rng
        chunk = min(self.CHUNK, len(text) // 4)
        # Exactly two derived chunks for every unrelated one, shuffled;
        # their windows are stratified over the text, since a chunk's
        # deferred scan runs from its first match to the text's end.
        derived = [i % 3 != 2 for i in range(self.POOL)]
        rng.shuffle(derived)
        count = sum(derived)
        starts = [int((j + rng.random()) * (len(text) - chunk + 1) / count)
                  for j in range(count)]
        rng.shuffle(starts)
        starts = iter(starts)
        for related in derived:
            seed = rng.randrange(2**31)
            if related:
                start = next(starts)
                query = derive_sequence(text[start:start + chunk],
                                        seed=seed)
            else:
                query = generate_dna(chunk, seed=seed)
            self.pool.append(("maximal_matches", True, query))
        self._first = {}
        return build_s

    def execute(self, kind, query):
        matches, result = core_matching.maximal_matches(
            self.index, query, min_length=self.MIN_LENGTH)
        return (tuple(result.lengths),
                tuple((m.query_start, m.length, m.data_starts)
                      for m in matches))

    def record(self, k, answer):
        # Keep one full answer per pool entry and a hash per op, so
        # memory does not grow with the number of ops run.
        self._first.setdefault(k, answer)
        return hash(answer)

    def _entry_ok(self, k):
        lengths, matches = self._first[k]
        query = self.pool[k][2]
        if k < self.ORACLE_SAMPLES:
            oracle = core_matching.brute_force_matching_statistics(
                self.text, query)
            if list(lengths) != oracle:
                return False
        if [(s, n) for s, n, _ in matches] != _maximal_events(
                lengths, self.MIN_LENGTH):
            return False
        return all(
            list(starts) == occurrences(self.text, query[s:s + n])
            for s, n, starts in matches)

    def verify(self, answers):
        verdict = {}
        wrong = 0
        for k, digest in answers:
            if k not in verdict:
                verdict[k] = self._entry_ok(k)
            if not verdict[k] or digest != hash(self._first[k]):
                wrong += 1
        return wrong

    def describe(self):
        return {"text_chars": len(self.text), "pool_chunks": self.POOL,
                "chunk_chars": len(self.pool[0][2]) if self.pool else 0,
                "min_length": self.MIN_LENGTH,
                "mix": "2/3 derive_sequence of reference windows, "
                       "1/3 unrelated generate_dna",
                "loop": "closed, 1 client"}


class DiskIngest(Workload):
    """Online disk construction interleaved with queries.

    Set-up builds and checkpoints a warm prefix. Every round copies
    that checkpoint (outside the measured time), reopens it, and runs
    one plan: ``CYCLES`` x (extend ``chunk`` chars, 20 ``contains``, 1
    ``find_all``), a 16-pattern ``batch_find_all`` every 4th cycle and
    a checkpoint after cycles 10 and 20. Rounds rotate over ``PLANS``
    query plans with the same shape, so each round does a like amount
    of work while a run still samples many pattern positions.
    """

    name = "disk-ingest"
    BUFFER_PAGES = 64
    WAL_FSYNC = "interval"
    PLANS = 16
    CYCLES = 24
    CONTAINS_PER_CYCLE = 20

    def setup(self, speed):
        self.warm = min(20_000, self.chars // 4)
        self.chunk = self.warm // 20
        needed = self.warm + self.CYCLES * self.chunk
        self.text = text = reference_text(self.chars)[:needed]
        os.makedirs(self.workdir, exist_ok=True)
        self.warm_path = os.path.join(self.workdir, "warm.pages")
        self.round_dir = os.path.join(self.workdir, "round")
        self.round_path = os.path.join(self.round_dir, "index.pages")
        self.ix = None
        warm = DiskSpineIndex(path=self.warm_path,
                              buffer_pages=self.BUFFER_PAGES,
                              wal_fsync=self.WAL_FSYNC)
        build_s = 0.0
        for i in range(0, self.warm, self.chunk):
            factor = speed.measure()
            started = time.perf_counter()
            warm.extend(text[i:i + self.chunk])
            build_s += (time.perf_counter() - started) * factor
        warm.checkpoint()
        self.warm_pages = warm.pagefile.page_count
        warm.close()
        self.build_chars = self.warm
        for _ in range(self.PLANS):
            self.pool.extend(self._plan())
        self.round_len = len(self.pool) // self.PLANS
        self.count_ops = self.round_len
        return build_s

    def _plan(self):
        rng = self.rng
        text = self.text
        ops = []
        length = self.warm
        generation = 1
        for cycle in range(self.CYCLES):
            chunk = text[length:length + self.chunk]
            length += len(chunk)
            ops.append(("extend", False, (chunk, length)))
            for _ in range(self.CONTAINS_PER_CYCLE):
                pattern = cut(text, rng, 12, 24, end=length)
                if rng.random() < 0.25:
                    pattern = point_mutate(pattern, rng)
                ops.append(("contains", True, (pattern, length)))
            ops.append(("find_all", True,
                        (cut(text, rng, 12, 24, end=length), length)))
            if cycle % 4 == 3:
                patterns = [cut(text, rng, 12, 24, end=length)
                            for _ in range(12)]
                patterns += [rng.choice(patterns) for _ in range(2)]
                patterns += [point_mutate(rng.choice(patterns), rng)
                             for _ in range(2)]
                rng.shuffle(patterns)
                ops.append(("batch", True, (tuple(patterns), length)))
            if cycle in (9, 19):
                generation += 1
                ops.append(("checkpoint", False, (None, generation)))
        return ops

    def starts_round(self, k):
        return k % self.round_len == 0

    def start_round(self, k):
        if self.ix is not None:
            self.ix.abort()
            self.ix = None
        shutil.rmtree(self.round_dir, ignore_errors=True)
        os.makedirs(self.round_dir)
        shutil.copyfile(self.warm_path, self.round_path)
        if os.path.exists(wal_path_for(self.warm_path)):
            shutil.copyfile(wal_path_for(self.warm_path),
                            wal_path_for(self.round_path))
        self.ix = DiskSpineIndex.open(self.round_path,
                                      buffer_pages=self.BUFFER_PAGES,
                                      wal_fsync=self.WAL_FSYNC)

    def execute(self, kind, payload):
        ix = self.ix
        arg = payload[0]
        if kind == "contains":
            return ix.contains(arg)
        if kind == "find_all":
            return ix.find_all(arg)
        if kind == "batch":
            return [list(m.starts)
                    for m in core_batch.batch_find_all(ix, arg)]
        if kind == "extend":
            ix.extend(arg)
            return len(ix)
        ix.checkpoint()
        return ix.generation

    def oracle(self, k):
        kind, _, (arg, length) = self.pool[k]
        if kind == "contains":
            return self.text.find(arg, 0, length) != -1
        if kind == "find_all":
            return occurrences(self.text, arg, length)
        if kind == "batch":
            return [occurrences(self.text, p, length) for p in arg]
        return length  # extend: new length; checkpoint: generation

    def build_chars_per_s(self, phase, build_s):
        # Online construction throughput of the timed extends, WAL
        # appends included (paper Fig. 7).
        extends = [s.latency for s in phase.samples if s.kind == "extend"]
        return self.chunk * len(extends) / sum(extends)

    def _count_ops(self):
        self.start_round(0)
        kinds = super()._count_ops()
        ix = self.ix
        counts = {"io." + key: value
                  for key, value in ix.pagefile.metrics.snapshot().items()}
        counts["bytes.page_file"] = os.path.getsize(self.round_path)
        wal = wal_path_for(self.round_path)
        counts["bytes.wal"] = (os.path.getsize(wal)
                               if os.path.exists(wal) else 0)
        counts["chars.indexed"] = len(ix)
        counts["chars.extended"] = kinds.get("ops.extend", 0) * self.chunk
        counts.update(kinds)
        return counts

    def describe(self):
        page_size = 4096
        return {"text_chars": len(self.text), "warm_prefix_chars":
                self.warm, "extend_chars": self.chunk,
                "cycles_per_round": self.CYCLES,
                "pool_pages": self.BUFFER_PAGES,
                "pool_bytes": self.BUFFER_PAGES * page_size,
                "warm_page_file_pages": self.warm_pages,
                "wal_fsync": self.WAL_FSYNC,
                "loop": "closed, 1 client"}

    def close(self):
        if self.ix is not None:
            self.ix.abort()
            self.ix = None


class ServeBatch(Workload):
    """Requests to a QueryService over packed shards, back to back."""

    name = "serve-batch"
    POOL = 2048
    SHARDS = 4
    MAX_PATTERN_LEN = 64
    BUILD_WORKERS = 2
    DEADLINE_S = 5.0
    #: Every BATCH_EVERY-th request is a batch (3%), evenly spaced so
    #: every run has the same number of batches.
    BATCH_EVERY = 33
    #: Pattern lengths; 8-char patterns have so many link-scan candidates
    #: that one sharded find_all costs ~12 ms.
    PATTERN_CHARS = (16, 48)
    count_ops = 120

    def setup(self, speed):
        self.text = text = reference_text(self.chars)
        os.makedirs(self.workdir, exist_ok=True)
        # The flat index is the oracle for the sharded answers. Its build
        # is the construction this workload times: the parallel build is
        # one call across processes that calibration cannot follow, so
        # it shows in set-up time only.
        self.flat, build_s = timed_build(text, speed)
        self.sharded = ShardedSpineIndex.build(
            text, shards=self.SHARDS, max_pattern_len=self.MAX_PATTERN_LEN,
            workers=self.BUILD_WORKERS, layer="packed", path=self.workdir)
        self.build_chars = len(text)
        self.service = QueryService(
            self.sharded, threads=1, default_deadline=self.DEADLINE_S,
            max_concurrent=2, max_queue=4)
        rng = self.rng
        for i in range(self.POOL):
            if i % self.BATCH_EVERY == self.BATCH_EVERY // 2:
                patterns = []
                for _ in range(rng.randint(32, 64)):
                    roll = rng.random()
                    if patterns and roll < 0.15:
                        patterns.append(rng.choice(patterns))
                    elif patterns and roll < 0.30:
                        patterns.append(point_mutate(rng.choice(patterns),
                                                     rng))
                    else:
                        patterns.append(cut(text, rng, *self.PATTERN_CHARS))
                self.pool.append(("batch", True, tuple(patterns)))
            else:
                pattern = cut(text, rng, *self.PATTERN_CHARS)
                if rng.random() < 0.1:
                    pattern = point_mutate(pattern, rng)
                self.pool.append(("find_all", True, pattern))
        return build_s

    def execute(self, kind, payload):
        if kind == "find_all":
            return list(self.service.find_all(payload))
        return [list(m.starts)
                for m in self.service.batch_find_all(payload)]

    def verify(self, answers):
        # Sharded answers against the flat index, resolved in one batch.
        distinct = set()
        for k, _ in answers:
            kind, _, payload = self.pool[k]
            distinct.update([payload] if kind == "find_all" else payload)
        distinct = sorted(distinct)
        flat = {m.pattern: list(m.starts) for m in
                core_batch.batch_find_all(self.flat, distinct)}
        wrong = 0
        for k, answer in answers:
            kind, _, payload = self.pool[k]
            expected = (flat[payload] if kind == "find_all"
                        else [flat[p] for p in payload])
            if answer != expected:
                wrong += 1
        return wrong

    def describe(self):
        return {"text_chars": len(self.text), "shards": self.SHARDS,
                "layer": "packed", "max_pattern_len": self.MAX_PATTERN_LEN,
                "build_workers": self.BUILD_WORKERS,
                "admission": {"max_concurrent": 2, "max_queue": 4},
                "deadline_s": self.DEADLINE_S,
                "batch_every": self.BATCH_EVERY,
                "pattern_chars": self.PATTERN_CHARS,
                "loop": "closed, 1 client"}

    def close(self):
        self.service.close()
        self.sharded.close()


WORKLOADS = {cls.name: cls for cls in
             (PointQuery, StreamMatch, DiskIngest, ServeBatch)}
