"""One query surface for every index type.

The three traversal layers and the sharded index answer the same verbs
with the engine's ``limit``/``cancel`` signatures, so a
:class:`SnapshotGuard` over any of them is one call per verb and must
equal brute force on the captured prefix at every limit.
"""

import pytest

from repro import ShardedSpineIndex, SnapshotGuard, SpineIndex
from repro.core.packed import PackedSpineIndex
from repro.disk.spine_disk import DiskSpineIndex
from repro.resilience import CancellationToken

from tests.conftest import PAPER_STRING, brute_occurrences

TEXT = PAPER_STRING * 3
PATTERNS = ("a", "ac", "ca", "aacc", "acaa", "cc", "zz")


def _build(layer, tmp_path):
    memory = SpineIndex(TEXT)
    if layer == "memory":
        return memory
    if layer == "packed":
        return PackedSpineIndex.from_index(memory)
    if layer == "disk":
        disk = DiskSpineIndex(alphabet=memory.alphabet,
                              path=str(tmp_path / "surface.pages"))
        disk.extend(TEXT)
        return disk
    return ShardedSpineIndex.build(TEXT, shards=3, max_pattern_len=5,
                                   alphabet=memory.alphabet)


@pytest.fixture(params=["memory", "packed", "disk", "shard"])
def index(request, tmp_path):
    built = _build(request.param, tmp_path)
    yield built
    close = getattr(built, "close", None)
    if close is not None:
        close()


def test_every_verb_takes_limit_and_cancel(index):
    # Every index type has the switch; the answers stay the same.
    index.enable_concurrent_reads()
    limit = len(TEXT) // 2
    prefix = TEXT[:limit]
    cancel = CancellationToken()
    for pattern in PATTERNS:
        expected = brute_occurrences(prefix, pattern)
        assert index.contains(pattern, limit=limit, cancel=cancel) == \
            bool(expected)
        assert index.find_first(pattern, limit=limit, cancel=cancel) == \
            (expected[0] if expected else None)
        assert index.find_all(pattern, limit=limit,
                              cancel=cancel) == expected
        assert index.count(pattern, limit=limit,
                           cancel=cancel) == len(expected)
    results = index.batch_find_all(PATTERNS, limit=limit, cancel=cancel)
    assert [list(m.starts) for m in results] == \
        [brute_occurrences(prefix, p) for p in PATTERNS]


def test_snapshot_guard_matches_brute_force_at_every_limit(index):
    for limit in range(len(TEXT) + 1):
        guard = SnapshotGuard(index, limit)
        prefix = TEXT[:limit]
        for pattern in PATTERNS:
            expected = brute_occurrences(prefix, pattern)
            where = (limit, pattern)
            assert guard.contains(pattern) == bool(expected), where
            assert guard.find_first(pattern) == \
                (expected[0] if expected else None), where
            assert list(guard.find_all(pattern)) == expected, where
        results = guard.batch_find_all(PATTERNS)
        assert [list(m.starts) for m in results] == \
            [brute_occurrences(prefix, p) for p in PATTERNS], limit
