"""Concurrency stress: threaded batch queries against the disk layer
under a deliberately tiny buffer pool.

Run directly in CI as a smoke step:

    PYTHONPATH=src python -m pytest tests/serve/test_stress.py -q

Readers hammer ``batch_find_all`` (multi-threaded traversal phases,
pinned page access, shared LT sweeps) or the single-pattern snapshot
queries ``search.find_all`` / ``search.contains`` while a writer keeps
extending the index; the read-write lock must serialize them such that
every answer is exactly correct for the prefix length it asked for —
no lost occurrences, no duplicates, no torn reads.
"""

import random
import threading
from contextlib import contextmanager

import pytest

from repro.alphabet import dna_alphabet
from repro.core import batch_find_all, search
from repro.disk.spine_disk import DiskSpineIndex

from tests.conftest import brute_occurrences


PATTERNS = ["ACG", "GT", "TTA", "ACGT", "CCC", "AXQ"]


@contextmanager
def _grow_under_readers(policy, query):
    """Extend a tiny-pool disk index from 300 to 1500 chars while three
    reader threads call ``query(disk, local_rng, k, oracle_k)`` for
    random reachable prefix lengths ``k``; ``query`` returns a
    description of a wrong answer, or ``None``.

    Yields ``(text, disk)`` for final checks, then closes the index.
    """
    rng = random.Random(0x5EED)
    text = "".join(rng.choice("ACGT") for _ in range(1500))
    seed = 300
    disk = DiskSpineIndex(alphabet=dna_alphabet(), buffer_pages=4,
                          page_size=512, policy=policy)
    disk.extend(text[:seed])
    disk.enable_concurrent_reads()

    # Exact oracle for every reachable prefix length.
    prefix_lengths = list(range(seed, len(text) + 1, 50))
    oracle = {
        k: {p: brute_occurrences(text[:k], p) for p in PATTERNS}
        for k in prefix_lengths
    }

    errors = []
    stop = threading.Event()

    def reader():
        local = random.Random(threading.get_ident())
        try:
            while not stop.is_set():
                # Pin the snapshot to a known prefix length (the index
                # only grows, so any k <= len(disk) stays valid) and
                # demand the exact answer for that prefix.
                reachable = [k for k in prefix_lengths
                             if k <= len(disk)]
                k = local.choice(reachable)
                wrong = query(disk, local, k, oracle[k])
                if wrong is not None:
                    errors.append((k, wrong))
                    return
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    try:
        try:
            for pos in range(seed, len(text), 50):
                disk.extend(text[pos:pos + 50])
        finally:
            # Even a crashing writer must not leave readers spinning.
            stop.set()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:1]
        yield text, disk
    finally:
        disk.close()


@pytest.mark.parametrize("policy", ["lru", "pintop"])
def test_threaded_batches_during_growth(policy):
    def query(disk, local, k, want):
        results = batch_find_all(disk, PATTERNS, threads=3, limit=k)
        got = [m.starts for m in results]
        expected = [want[p] for p in PATTERNS]
        return None if got == expected else (got, expected)

    with _grow_under_readers(policy, query) as (text, disk):
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

    with _grow_under_readers(policy, query) as (text, disk):
        for pattern in PATTERNS:
            assert search.find_all(disk, pattern, len(text)) == \
                brute_occurrences(text, pattern)
