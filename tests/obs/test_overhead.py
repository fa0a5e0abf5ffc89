"""Disabled-mode cost guard for the observability layers.

The contract (ISSUE/PR discipline since the metrics registry landed):
with metrics and tracing both disabled, a search allocates **zero**
trace or instrument objects — call sites gate on one attribute check
and fall through to the seed-era fast loops. The test enforces that
two ways: sentinel identity (disabled registries/tracers hand back
``NULL_INSTRUMENT``/``None``) and booby-trapped constructors (any
``Span``/``QueryScope``/``Counter``/``Timer``/``Histogram`` allocation
during the disabled run raises). A loose wall-clock bound keeps the disabled path
within a factor of the bare traversal core it wraps.
"""

import time

import pytest

from repro import obs
from repro.core.index import SpineIndex
from repro.core.matching import matching_statistics
from repro.core.search import find_first_end
from repro.obs import quantiles as quantiles_mod
from repro.obs import registry as registry_mod
from repro.obs import slowlog as slowlog_mod
from repro.obs import trace as trace_mod
from repro.sequences import generate_dna

SCALE = 100_000


@pytest.fixture(scope="module")
def big_index():
    return SpineIndex(generate_dna(SCALE, seed=11))


@pytest.fixture(scope="module")
def patterns():
    dna = generate_dna(SCALE, seed=11)
    return [dna[start:start + 16] for start in range(0, 4000, 40)]


def test_disabled_sentinels():
    assert obs.get_registry().enabled is False
    assert obs.get_tracer().enabled is False
    assert obs.get_slow_log().enabled is False
    assert obs.get_registry().counter("x") is registry_mod.NULL_INSTRUMENT
    assert obs.get_registry().timer("x") is registry_mod.NULL_INSTRUMENT
    assert obs.get_registry().gauge("x") is registry_mod.NULL_INSTRUMENT
    assert (obs.get_registry().quantiles("x")
            is registry_mod.NULL_INSTRUMENT)
    assert obs.get_tracer().begin("x") is None


def _forbid_observability_objects(monkeypatch):
    """Make every span, scope, instrument and quantile constructor
    raise."""
    def boom(self, *args, **kwargs):
        raise AssertionError(
            "observability object allocated on the disabled path")

    monkeypatch.setattr(trace_mod.Span, "__init__", boom)
    monkeypatch.setattr(obs.QueryScope, "__init__", boom)
    monkeypatch.setattr(registry_mod.Counter, "__init__", boom)
    monkeypatch.setattr(registry_mod.Timer, "__init__", boom)
    monkeypatch.setattr(registry_mod.Histogram, "__init__", boom)
    monkeypatch.setattr(registry_mod.Gauge, "__init__", boom)
    monkeypatch.setattr(quantiles_mod.P2Quantile, "__init__", boom)
    monkeypatch.setattr(quantiles_mod.StreamingQuantiles, "__init__",
                        boom)


def test_disabled_search_allocates_no_observability_objects(
        big_index, patterns, monkeypatch):
    _forbid_observability_objects(monkeypatch)
    assert not obs.get_registry().enabled
    assert not obs.get_tracer().enabled
    for pattern in patterns:
        assert big_index.contains(pattern)
    big_index.find_all(patterns[0])
    matching_statistics(big_index, generate_dna(512, seed=12))


def test_disabled_batch_and_service_allocate_nothing(
        big_index, patterns, monkeypatch):
    """The batched engine and the serving front end stay on the
    one-attribute-check path when metrics, tracing and the slow-query
    log are all off: no instrument, quantile, or slow-log record may
    be created."""
    from repro.core.batch import batch_find_all
    from repro.serve import QueryService

    _forbid_observability_objects(monkeypatch)
    monkeypatch.setattr(
        slowlog_mod.SlowQueryLog, "observe",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError(
            "slow-log record taken while disabled")))

    assert not obs.get_slow_log().enabled
    batch_find_all(big_index, patterns[:8])
    with QueryService(big_index, threads=1) as service:
        service.find_all(patterns[0])
        service.batch_find_all(patterns[:4])


def test_disabled_sharded_and_scrub_allocate_nothing(tmp_path,
                                                     monkeypatch):
    """Every sharded verb, on packed shards, and a scrub sweep over a
    disk index take the shared null scope while everything is off."""
    from repro.alphabet import dna_alphabet
    from repro.disk import DiskSpineIndex
    from repro.shard import ShardedSpineIndex
    from repro.storage.scrub import Scrubber

    text = generate_dna(6000, seed=13)
    sharded = ShardedSpineIndex.build(text, shards=3, max_pattern_len=32,
                                      layer="packed")
    disk = DiskSpineIndex(alphabet=dna_alphabet(),
                          path=str(tmp_path / "scrub.spine"))
    disk.extend(text[:2000])
    disk.checkpoint()
    hits = [text[i:i + 12] for i in range(0, 5800, 400)]
    _forbid_observability_objects(monkeypatch)
    try:
        for pattern in hits:
            assert sharded.contains(pattern)
            assert sharded.find_first(pattern) is not None
            assert sharded.find_all(pattern)
        assert not sharded.contains("ACGTTGCA" * 4)
        assert all(match.found
                   for match in sharded.batch_find_all(hits, threads=2))
        assert Scrubber(disk).scrub_once()["corrupt"] == []
    finally:
        disk.close()


def test_disabled_search_wall_clock_factor(big_index, patterns):
    """Public (instrumented-but-disabled) search stays within a loose
    factor of the bare traversal core — the seed-era loop that
    ``find_first_end`` still runs when no span is attached."""
    encode = big_index.alphabet.encode

    def bare():
        for pattern in patterns:
            find_first_end(big_index, encode(pattern))

    def public():
        for pattern in patterns:
            big_index.contains(pattern)

    def best(fn, repeats=3):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    bare()  # warm both paths before timing
    public()
    baseline = best(bare)
    observed = best(public)
    # Generous: gating is one attribute check per query, but tiny
    # absolute times make the ratio noisy on loaded CI machines.
    assert observed <= baseline * 5 + 0.05, (
        f"disabled-path search took {observed:.4f}s vs bare traversal "
        f"{baseline:.4f}s")
