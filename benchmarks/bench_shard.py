"""Sharded construction and querying (``BENCH_shard-*.json``).

Standalone snapshot script measuring what :mod:`repro.shard` buys:

1. **Build speedup** — wall-clock to build the default workload sharded
   with 1 worker process vs. a pool (default 4). SPINE construction is
   a strictly sequential APPEND loop, so this is the first number in
   the repo that can scale with cores. The snapshot records
   ``cpu_count`` alongside the timings: on a single-core machine the
   pool pays IPC for nothing and the speedup honestly reports < 1.
   A second pair builds packed shards at the repository benchmark's
   serve-batch shape (the 199.5k-char HC21 text, 4 shards,
   ``max_pattern_len=64``, 1 vs. 2 workers), where each shard is also
   frozen into the Section 5 layout.
2. **Query latency vs. shard count** — ``find_all`` and
   ``batch_find_all`` across shard counts (default 1/2/4/8) on the
   same text, plus the unsharded baseline, with parity asserted on
   every workload pattern.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py -o benchmarks

writes ``benchmarks/BENCH_shard-<label>.json`` using the same report
envelope as the other bench scripts, so CI collects it with the
``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.core.batch import batch_find_all
from repro.core.index import SpineIndex
from repro.obs.report import build_report
from repro.sequences import generate_dna, load_corpus_sequence
from repro.shard import ShardedSpineIndex


def _best_seconds(fn, repeats):
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _make_workload(text, patterns, pattern_length, seed):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(patterns):
        start = rng.randrange(0, len(text) - pattern_length)
        out.append(text[start:start + pattern_length])
    return out


def _build_seconds(text, shards, workers, max_pattern_len, repeats,
                   layer="memory"):
    return _best_seconds(
        lambda: ShardedSpineIndex.build(
            text, shards=shards, workers=workers,
            max_pattern_len=max_pattern_len, layer=layer),
        repeats)


def collect_snapshot(scale=300_000, shards=4, workers=4,
                     query_scale=60_000, shard_counts=(1, 2, 4, 8),
                     patterns=48, pattern_length=12, repeats=2,
                     max_pattern_len=32, seed=17, label=None):
    cpu_count = os.cpu_count() or 1

    # -- build speedup: 1 process vs. a pool -------------------------
    text = generate_dna(scale, seed=seed)
    serial_seconds = _build_seconds(text, shards, 1, max_pattern_len,
                                    repeats)
    pool_seconds = _build_seconds(text, shards, workers,
                                  max_pattern_len, repeats)
    build = {
        "scale": scale,
        "shards": shards,
        "workers": workers,
        "cpu_count": cpu_count,
        "serial_seconds": serial_seconds,
        "pool_seconds": pool_seconds,
        "speedup": serial_seconds / pool_seconds,
    }
    # Packed shards at serve-batch's shape: 28.5 chars per scale unit,
    # so scale 7000 is its 199,500-char text.
    packed_text = load_corpus_sequence("HC21", scale=7000)
    packed_serial = _build_seconds(packed_text, 4, 1, 64, repeats,
                                   layer="packed")
    packed_pool = _build_seconds(packed_text, 4, 2, 64, repeats,
                                 layer="packed")
    build["packed"] = {
        "scale": len(packed_text),
        "shards": 4,
        "workers": 2,
        "max_pattern_len": 64,
        "serial_seconds": packed_serial,
        "pool_seconds": packed_pool,
        "speedup": packed_serial / packed_pool,
    }

    # -- query latency vs. shard count -------------------------------
    qtext = generate_dna(query_scale, seed=seed + 1)
    workload = _make_workload(qtext, patterns, pattern_length,
                              seed + 2)
    flat = SpineIndex(qtext)
    expected = {p: flat.find_all(p) for p in workload}
    query = {
        "scale": query_scale,
        "patterns": patterns,
        "pattern_length": pattern_length,
        "unsharded_find_all_seconds": _best_seconds(
            lambda: [flat.find_all(p) for p in workload], repeats),
        "unsharded_batch_seconds": _best_seconds(
            lambda: batch_find_all(flat, workload), repeats),
        "by_shard_count": [],
    }
    for count in shard_counts:
        sharded = ShardedSpineIndex.build(
            qtext, shards=count, max_pattern_len=max_pattern_len)
        for pattern in workload:
            got = sharded.find_all(pattern)
            if got != expected[pattern]:  # pragma: no cover
                raise AssertionError(
                    f"shard parity violated at k={count} for "
                    f"{pattern!r}")
        query["by_shard_count"].append({
            "shards": count,
            "find_all_seconds": _best_seconds(
                lambda: [sharded.find_all(p) for p in workload],
                repeats),
            "batch_seconds": _best_seconds(
                lambda: sharded.batch_find_all(workload), repeats),
        })

    registry = obs.MetricsRegistry()  # only for the report envelope
    report = build_report(registry, label=label, context={
        "scale": scale,
        "query_scale": query_scale,
        "shards": shards,
        "workers": workers,
        "shard_counts": list(shard_counts),
        "patterns": patterns,
        "pattern_length": pattern_length,
        "max_pattern_len": max_pattern_len,
        "repeats": repeats,
        "seed": seed,
        "cpu_count": cpu_count,
    })
    report["build"] = build
    report["query"] = query
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="write a BENCH_shard-<label>.json snapshot: "
                    "parallel build speedup + query latency vs. "
                    "shard count")
    parser.add_argument("-o", "--outdir", default=".",
                        help="directory for the snapshot (default: .)")
    parser.add_argument("--label",
                        help="snapshot label (default: timestamp)")
    parser.add_argument("--scale", type=int, default=300_000,
                        help="build-benchmark text length")
    parser.add_argument("--query-scale", type=int, default=60_000,
                        help="query-benchmark text length")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--shard-counts", type=int, nargs="+",
                        default=[1, 2, 4, 8])
    parser.add_argument("--patterns", type=int, default=48)
    parser.add_argument("--pattern-length", type=int, default=12)
    parser.add_argument("--max-pattern-len", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)
    label = args.label or time.strftime("%Y%m%d-%H%M%S")
    report = collect_snapshot(
        scale=args.scale, shards=args.shards, workers=args.workers,
        query_scale=args.query_scale,
        shard_counts=tuple(args.shard_counts),
        patterns=args.patterns, pattern_length=args.pattern_length,
        repeats=args.repeats, max_pattern_len=args.max_pattern_len,
        seed=args.seed, label=label)
    path = os.path.join(args.outdir, f"BENCH_shard-{label}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    build = report["build"]
    print(f"wrote {path} "
          f"(build speedup {build['speedup']:.2f}x at "
          f"{build['workers']} worker(s), packed "
          f"{build['packed']['speedup']:.2f}x at 2, on "
          f"{build['cpu_count']} core(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
