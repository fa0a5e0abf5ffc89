"""Batched vs looped multi-pattern querying (``BENCH_batch-*.json``).

Standalone snapshot script comparing ``repro.core.batch.batch_find_all``
(one shared downstream Link-Table scan for the whole workload) against
the looped per-pattern ``find_all`` baseline, on the in-memory, packed
and disk layers::

    PYTHONPATH=src python benchmarks/bench_batch.py -o benchmarks

writes ``benchmarks/BENCH_batch-<label>.json`` using the same report
envelope as ``bench_report.py``, so CI collects it with the other
``BENCH_*.json`` artifacts. Alongside wall-clock timings it records the
structural counters that explain them: scan nodes per strategy and the
disk layer's page traffic (physical reads + buffer hits), where the
batched form's single sequential LT sweep shows up directly.
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
from repro.core.packed import PackedSpineIndex
from repro.disk.spine_disk import DiskSpineIndex
from repro.obs.report import build_report
from repro.sequences import generate_dna


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


def _counters(layer, workload):
    """Scan-node counters for both strategies on ``layer``."""
    prefix = layer.NAME_PREFIX + "search"
    with obs.metrics_enabled() as registry:
        batch_find_all(layer, workload)
        batched = registry.snapshot()["counters"]
    with obs.metrics_enabled() as registry:
        for pattern in workload:
            layer.find_all(pattern)
        looped = registry.snapshot()["counters"]
    return {
        "batched_scan_nodes": batched.get("batch.scan_nodes", 0),
        "looped_scan_nodes": looped.get(f"{prefix}.scan_nodes", 0),
        "batched_occurrences": batched.get("batch.occurrences", 0),
        "looped_occurrences": looped.get(f"{prefix}.occurrences", 0),
    }


def _disk_page_traffic(disk, workload):
    metrics = disk.pagefile.metrics

    def measure(fn):
        metrics.reset()
        fn()
        return {
            "reads": metrics.reads,
            "buffer_hits": metrics.buffer_hits,
            "page_touches": metrics.reads + metrics.buffer_hits,
        }

    batched = measure(lambda: batch_find_all(disk, workload))
    looped = measure(lambda: [disk.find_all(p) for p in workload])
    return {"batched": batched, "looped": looped}


def _in_memory_layer(layer, workload, repeats, threads):
    result = {
        "batched_seconds": _best_seconds(
            lambda: batch_find_all(layer, workload), repeats),
        "batched_threaded_seconds": _best_seconds(
            lambda: batch_find_all(layer, workload, threads=threads),
            repeats),
        "looped_seconds": _best_seconds(
            lambda: [layer.find_all(p) for p in workload], repeats),
    }
    result["speedup"] = result["looped_seconds"] / \
        result["batched_seconds"]
    result["counters"] = _counters(layer, workload)
    return result


def collect_snapshot(scale=20_000, patterns=64, pattern_length=8,
                     repeats=3, disk_chars=4_000, buffer_pages=16,
                     threads=4, seed=11, label=None):
    text = generate_dna(scale, seed=seed)
    workload = _make_workload(text, patterns, pattern_length, seed + 1)

    index = SpineIndex(text)
    memory = _in_memory_layer(index, workload, repeats, threads)
    packed = _in_memory_layer(PackedSpineIndex.from_index(index),
                              workload, repeats, threads)

    disk = DiskSpineIndex(alphabet=index.alphabet,
                          buffer_pages=buffer_pages)
    disk.extend(text[:disk_chars])
    disk_workload = [p for p in workload
                     if disk.find_all(p)] or workload[:8]
    disk_result = {
        "chars": disk_chars,
        "buffer_pages": buffer_pages,
        "patterns": len(disk_workload),
        "batched_seconds": _best_seconds(
            lambda: batch_find_all(disk, disk_workload), repeats),
        "looped_seconds": _best_seconds(
            lambda: [disk.find_all(p) for p in disk_workload], repeats),
    }
    disk_result["speedup"] = disk_result["looped_seconds"] / \
        disk_result["batched_seconds"]
    disk_result["counters"] = _counters(disk, disk_workload)
    disk_result["page_traffic"] = _disk_page_traffic(disk,
                                                     disk_workload)
    disk.close()

    registry = obs.MetricsRegistry()  # only for the report envelope
    report = build_report(registry, label=label, context={
        "scale": scale,
        "patterns": patterns,
        "pattern_length": pattern_length,
        "repeats": repeats,
        "disk_chars": disk_chars,
        "buffer_pages": buffer_pages,
        "threads": threads,
        "seed": seed,
    })
    report["memory"] = memory
    report["packed"] = packed
    report["disk"] = disk_result
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="write a BENCH_batch-<label>.json snapshot "
                    "comparing batched vs looped find_all")
    parser.add_argument("-o", "--outdir", default=".",
                        help="directory for the snapshot (default: .)")
    parser.add_argument("--label",
                        help="snapshot label (default: timestamp)")
    parser.add_argument("--scale", type=int, default=20_000)
    parser.add_argument("--patterns", type=int, default=64)
    parser.add_argument("--pattern-length", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--disk-chars", type=int, default=4_000)
    parser.add_argument("--buffer-pages", type=int, default=16)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    label = args.label or time.strftime("%Y%m%d-%H%M%S")
    report = collect_snapshot(
        scale=args.scale, patterns=args.patterns,
        pattern_length=args.pattern_length, repeats=args.repeats,
        disk_chars=args.disk_chars, buffer_pages=args.buffer_pages,
        threads=args.threads, seed=args.seed, label=label)
    path = os.path.join(args.outdir, f"BENCH_batch-{label}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} "
          f"(memory speedup {report['memory']['speedup']:.2f}x, "
          f"packed speedup {report['packed']['speedup']:.2f}x, "
          f"disk speedup {report['disk']['speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
