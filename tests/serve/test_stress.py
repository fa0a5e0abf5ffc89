"""Concurrency stress: threaded batch queries against the disk layer
under a deliberately tiny buffer pool, and against the in-memory layer.

Run directly in CI as a smoke step:

    PYTHONPATH=src python -m pytest tests/serve/test_stress.py -q

Readers hammer ``batch_find_all`` (multi-threaded traversal phases,
pinned page access, shared LT sweeps) or the single-pattern snapshot
queries ``search.find_all`` / ``search.contains`` while a writer keeps
extending the index. On disk the read-write lock must serialize them;
the in-memory index takes no lock, so its snapshot bound alone (a node
is published only once complete) and a link scan that exports no
buffer of the growing arrays must keep readers and the writer apart.
Either way every answer is exactly correct for the prefix length it
asked for — no lost occurrences, no duplicates, no torn reads.
"""

import random
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.alphabet import dna_alphabet
from repro.core import SpineIndex, batch_find_all, search
from repro.disk.spine_disk import DiskSpineIndex

from tests.conftest import brute_occurrences


PATTERNS = ["ACG", "GT", "TTA", "ACGT", "CCC", "AXQ"]


def _tiny_pool_disk(policy):
    """A factory for a disk index under a four-page 512-byte pool,
    latched for concurrent readers."""
    def make(text):
        disk = DiskSpineIndex(alphabet=dna_alphabet(), buffer_pages=4,
                              page_size=512, policy=policy)
        disk.extend(text)
        disk.enable_concurrent_reads()
        return disk
    return make


def _memory(text):
    return SpineIndex(text, alphabet=dna_alphabet())


@contextmanager
def _grow_under_readers(make_index, query):
    """Extend an index from 300 to 1500 chars while three reader
    threads call ``query(index, local_rng, k, oracle_k)`` for random
    reachable prefix lengths ``k``; ``query`` returns a description of
    a wrong answer, or ``None``. ``make_index(text)`` builds the index
    over the first 300 chars. After each 50-char extend the writer
    waits for the readers to answer a few more queries, so reads and
    extends interleave even where an extend takes microseconds.

    Yields ``(text, index)`` for final checks, then closes the index
    if it has a ``close``.
    """
    rng = random.Random(0x5EED)
    text = "".join(rng.choice("ACGT") for _ in range(1500))
    seed = 300
    index = make_index(text[:seed])

    # Exact oracle for every reachable prefix length.
    prefix_lengths = list(range(seed, len(text) + 1, 50))
    oracle = {
        k: {p: brute_occurrences(text[:k], p) for p in PATTERNS}
        for k in prefix_lengths
    }

    errors = []
    stop = threading.Event()
    answered = threading.Condition()
    answers = [0]

    def reader():
        local = random.Random(threading.get_ident())
        try:
            while not stop.is_set():
                # Pin the snapshot to a known prefix length (the index
                # only grows, so any k <= len(index) stays valid) and
                # demand the exact answer for that prefix.
                reachable = [k for k in prefix_lengths
                             if k <= len(index)]
                k = local.choice(reachable)
                wrong = query(index, local, k, oracle[k])
                if wrong is not None:
                    errors.append((k, wrong))
                    return
                with answered:
                    answers[0] += 1
                    answered.notify_all()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    try:
        try:
            for pos in range(seed, len(text), 50):
                index.extend(text[pos:pos + 50])
                with answered:
                    wanted = answers[0] + 3
                    answered.wait_for(
                        lambda: answers[0] >= wanted or errors, timeout=10)
        finally:
            # Even a crashing writer must not leave readers spinning.
            stop.set()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:1]
        yield text, index
    finally:
        if hasattr(index, "close"):
            index.close()


@pytest.mark.parametrize("policy", ["lru", "pintop"])
def test_threaded_batches_during_growth(policy):
    def query(disk, local, k, want):
        results = batch_find_all(disk, PATTERNS, threads=3, limit=k)
        got = [m.starts for m in results]
        expected = [want[p] for p in PATTERNS]
        return None if got == expected else (got, expected)

    make_disk = _tiny_pool_disk(policy)
    with _grow_under_readers(make_disk, query) as (text, disk):
        # Final state sanity after all the concurrent traffic.
        final = batch_find_all(disk, PATTERNS, threads=3)
        for match in final:
            assert match.starts == brute_occurrences(text, match.pattern)


@pytest.mark.parametrize("policy", ["lru", "pintop"])
def test_snapshot_point_queries_during_growth(policy):
    """``search.find_all`` / ``search.contains`` with a snapshot
    ``limit`` — the single-pattern path
    ``QueryService`` takes through ``SnapshotGuard`` — must hold the
    disk index's read lock, or a reader evicts pages an ``extend`` is
    still mutating."""
    def query(disk, local, k, want):
        pattern = local.choice(PATTERNS)
        got = search.find_all(disk, pattern, k)
        present = search.contains(disk, pattern, k)
        if got != want[pattern] or present != bool(want[pattern]):
            return pattern, got, present
        return None

    make_disk = _tiny_pool_disk(policy)
    with _grow_under_readers(make_disk, query) as (text, disk):
        for pattern in PATTERNS:
            assert search.find_all(disk, pattern, len(text)) == \
                brute_occurrences(text, pattern)


def test_memory_snapshot_queries_during_growth():
    """The in-memory layer under the same load: snapshot
    ``search.find_all`` and ``batch_find_all`` readers while a writer
    extends a lock-free ``SpineIndex``. A link scan holding a buffer
    export of the growing link arrays would make ``extend`` raise
    ``BufferError``; a scan past its snapshot would add occurrences."""
    def query(index, local, k, want):
        pattern = local.choice(PATTERNS)
        got = search.find_all(index, pattern, k)
        if got != want[pattern]:
            return pattern, got
        batch = [m.starts for m in batch_find_all(index, PATTERNS,
                                                  threads=2, limit=k)]
        expected = [want[p] for p in PATTERNS]
        return None if batch == expected else (batch, expected)

    # A short switch interval lets the writer preempt readers inside a
    # scan, not only between queries.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _grow_under_readers(_memory, query) as (text, index):
            assert len(index) == len(text)
            for match in batch_find_all(index, PATTERNS):
                assert match.starts == brute_occurrences(text,
                                                         match.pattern)
    finally:
        sys.setswitchinterval(interval)
