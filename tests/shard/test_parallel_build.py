"""Multi-process construction (repro.shard.parallel)."""

import pytest

from repro import ShardedSpineIndex, SpineIndex
from repro.exceptions import ConstructionError
from repro.sequences import generate_dna
from repro.shard.parallel import ShardBuildSpec, build_shard_indexes

from tests.conftest import brute_occurrences


def test_parallel_build_equals_serial_build():
    text = generate_dna(8_000, seed=21)
    serial = ShardedSpineIndex.build(text, shards=4,
                                     max_pattern_len=12, workers=1)
    parallel = ShardedSpineIndex.build(text, shards=4,
                                       max_pattern_len=12, workers=2)
    flat = SpineIndex(text)
    for pattern in ("acgt", "tt", "cgcg", text[4000:4010]):
        expected = flat.find_all(pattern)
        assert serial.find_all(pattern) == expected
        assert parallel.find_all(pattern) == expected


def test_parallel_shards_are_structurally_equal_to_serial():
    text = generate_dna(3_000, seed=4)
    serial = ShardedSpineIndex.build(text, shards=3,
                                     max_pattern_len=8, workers=1)
    parallel = ShardedSpineIndex.build(text, shards=3,
                                       max_pattern_len=8, workers=3)
    for a, b in zip(serial._shards, parallel._shards):
        assert a.start == b.start
        assert a.owned_len == b.owned_len
        assert a.index.structurally_equal(b.index)


def test_parallel_disk_build(tmp_path):
    text = generate_dna(2_000, seed=8)
    sh = ShardedSpineIndex.build(text, shards=2, max_pattern_len=8,
                                 layer="disk", workers=2,
                                 path=str(tmp_path / "pd"))
    try:
        for pattern in ("acg", "tta", text[990:998]):
            assert sh.find_all(pattern) == \
                brute_occurrences(text, pattern)
    finally:
        sh.close()


def test_parallel_disk_build_without_path_rejected():
    with pytest.raises(ConstructionError):
        ShardedSpineIndex.build("acgt" * 100, shards=2, workers=2,
                                layer="disk")


def test_worker_uses_global_alphabet():
    # Shard 1's segment is all-"a": per-shard inference would produce a
    # one-symbol alphabet and wrong codes. The build must ship the
    # global alphabet to every worker.
    text = "a" * 500 + "b" * 500
    sh = ShardedSpineIndex.build(text, shards=2, max_pattern_len=4,
                                 workers=2)
    assert sh.find_all("ab") == [499]
    assert sh.contains("ba") is False


def test_build_spec_round_trip_via_worker(tmp_path):
    from repro.alphabet import dna_alphabet

    spec = ShardBuildSpec(0, "acgtacgt", dna_alphabet(), "memory",
                          str(tmp_path / "s.spne"))
    (index,) = build_shard_indexes([spec], workers=1)
    assert index.find_all("cgt") == [1, 5]


def test_invalid_workers():
    with pytest.raises(ConstructionError):
        build_shard_indexes([], workers=0)


def _assert_same_packed(a, b):
    from tests.core.test_freeze_exactness import assert_same_layout

    assert a.start == b.start
    assert a.owned_len == b.owned_len
    assert_same_layout(a.index, b.index)


def test_parallel_packed_build_equals_serial_build():
    from repro.core.packed import PackedSpineIndex

    text = generate_dna(6_000, seed=13)
    serial = ShardedSpineIndex.build(text, shards=3, max_pattern_len=10,
                                     layer="packed", workers=1)
    parallel = ShardedSpineIndex.build(text, shards=3, max_pattern_len=10,
                                       layer="packed", workers=2)
    for a, b in zip(serial._shards, parallel._shards, strict=True):
        assert isinstance(b.index, PackedSpineIndex)
        _assert_same_packed(a, b)
    flat = SpineIndex(text)
    for pattern in ("acgt", "gg", "tacg", text[2995:3005]):
        expected = flat.find_all(pattern)
        assert serial.find_all(pattern) == expected
        assert parallel.find_all(pattern) == expected


def test_memory_layout_loads_as_packed(tmp_path):
    from repro.core.packed import PackedSpineIndex

    text = generate_dna(5_000, seed=31)
    path = str(tmp_path / "mem")
    saved = ShardedSpineIndex.build(text, shards=3, max_pattern_len=10,
                                    workers=2, path=path)
    packed = ShardedSpineIndex.load(path, layer="packed")
    direct = ShardedSpineIndex.build(text, shards=3, max_pattern_len=10,
                                     layer="packed")
    assert packed.layer == "packed"
    for a, b in zip(direct._shards, packed._shards, strict=True):
        assert isinstance(b.index, PackedSpineIndex)
        _assert_same_packed(a, b)
    flat = SpineIndex(text)
    for pattern in ("acg", "tt", text[1660:1670]):
        expected = flat.find_all(pattern)
        assert saved.find_all(pattern) == expected
        assert packed.find_all(pattern) == expected
