"""WAL extend-throughput snapshot (``BENCH_wal-*.json``).

Every acknowledged ``extend()`` on a v3 disk index is framed into the
write-ahead log (and, per policy, fsynced) before any page mutates.
This script measures what that durability costs::

    PYTHONPATH=src python benchmarks/bench_wal.py -o benchmarks

One measurement per configuration, best-of-``repeats``: a fresh disk
index is built and checkpointed, then ``extends`` chunks of
``chunk_chars`` characters are appended and timed. Configurations:

* ``disabled`` — ``wal_fsync=None``: the pre-WAL seed path (no log at
  all); the baseline every policy is compared against.
* ``off`` — framing only; the log is synced at checkpoint/close.
  Measures the pure CRC+write cost of the frame.
* ``interval`` — fsync every ``wal_fsync_interval`` appends; the
  amortized middle ground.
* ``always`` — fsync per append: full acknowledged-write durability,
  and the one figure dominated by the disk, not by Python.

Each configuration also records what keeping the log costs. The log
holds the whole text — a checkpoint fsyncs it and leaves it in place —
so after the timed loop the index is crashed, reopened (replaying the
timed extends; ``reopen_seconds``) and checkpointed, and
``log_bytes_per_char`` is the log size over the index length: about 1
byte per character plus a 24-byte frame per extend call.

Each configuration also records the extend loop's page traffic from
``pagefile.metrics``: buffer-pool lookups per appended character and
physical page reads and writes per 1000 characters. These counts are
hardware-free (identical on every machine and under every fsync
policy), so they put construction I/O on the snapshot trajectory next
to the throughput.

The per-policy ``slowdown`` ratio (vs. ``disabled``) is the headline.
``always`` is expected to be much slower on real disks — that is the
price of the durability contract, not a regression; ``off`` should be
within a few percent of ``disabled``.

The report uses the shared ``BENCH_*.json`` envelope so CI collects it
with the other snapshots.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from repro import obs
from repro.alphabet import dna_alphabet
from repro.disk.spine_disk import DiskSpineIndex
from repro.obs.report import build_report
from repro.sequences import generate_dna
from repro.storage.wal import wal_path_for

#: (name, wal_fsync, wal_fsync_interval) per measured configuration.
CONFIGURATIONS = (
    ("disabled", None, 32),
    ("off", "off", 32),
    ("interval", "interval", 32),
    ("always", "always", 32),
)


def _page_traffic(before, after, chars):
    """Pool lookups per char and physical reads/writes per 1k chars
    between two ``IOMetrics`` snapshots."""
    lookups = (after["buffer_hits"] + after["buffer_misses"]
               - before["buffer_hits"] - before["buffer_misses"])
    return {
        "pool_lookups_per_char": lookups / chars,
        "reads_per_kchar": 1000 * (after["reads"] - before["reads"])
        / chars,
        "writes_per_kchar": 1000 * (after["writes"] - before["writes"])
        / chars,
    }


def _time_extends(workdir, base, chunks, policy, interval,
                  buffer_pages):
    """Build a fresh checkpointed index, time the extend loop, then
    crash, reopen (timed) and checkpoint it; returns ``(seconds,
    wal_bytes, page_traffic, log)`` where ``log`` holds the reopen
    seconds and the log bytes per char after the checkpoint."""
    path = os.path.join(workdir, "bench.spine")
    options = dict(buffer_pages=buffer_pages, wal_fsync=policy,
                   wal_fsync_interval=interval)
    index = DiskSpineIndex(alphabet=dna_alphabet(), path=path,
                           **options)
    try:
        index.extend(base)
        index.checkpoint()
        before = index.pagefile.metrics.snapshot()
        started = time.perf_counter()
        for chunk in chunks:
            index.extend(chunk)
        elapsed = time.perf_counter() - started
        pages = _page_traffic(before, index.pagefile.metrics.snapshot(),
                              sum(map(len, chunks)))
        wal_bytes = (os.path.getsize(wal_path_for(path))
                     if index.wal is not None else 0)
        index.crash()
        started = time.perf_counter()
        index = DiskSpineIndex.open(path, **options)
        reopen_seconds = time.perf_counter() - started
        index.checkpoint()
        log = {
            "reopen_seconds": reopen_seconds,
            "log_bytes_per_char": (
                os.path.getsize(wal_path_for(path)) / len(index)
                if index.wal is not None else 0.0),
        }
    finally:
        index.abort()
        for leftover in (path, wal_path_for(path)):
            if os.path.exists(leftover):
                os.unlink(leftover)
    return elapsed, wal_bytes, pages, log


def collect_snapshot(base_chars=4000, extends=64, chunk_chars=64,
                     buffer_pages=32, repeats=3, seed=29, label=None):
    base = generate_dna(base_chars, seed=seed)
    chunks = [generate_dna(chunk_chars, seed=seed + 1 + i)
              for i in range(extends)]
    total_chars = extends * chunk_chars

    results = {}
    workdir = tempfile.mkdtemp(prefix="bench-wal-")
    try:
        for name, policy, interval in CONFIGURATIONS:
            best = None
            reopen = None
            wal_bytes = 0
            for _ in range(repeats):
                elapsed, wal_bytes, pages, log = _time_extends(
                    workdir, base, chunks, policy, interval,
                    buffer_pages)
                best = elapsed if best is None else min(best, elapsed)
                reopen = (log["reopen_seconds"] if reopen is None
                          else min(reopen, log["reopen_seconds"]))
            results[name] = {
                "fsync_policy": policy,
                "seconds": best,
                "chars_per_sec": (total_chars / best
                                  if best > 0 else None),
                "extends_per_sec": (extends / best
                                    if best > 0 else None),
                "wal_bytes": wal_bytes,
                "log_bytes_per_char": log["log_bytes_per_char"],
                "reopen_seconds": reopen,
                **pages,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    baseline = results["disabled"]["seconds"]
    for name, data in results.items():
        data["slowdown"] = (data["seconds"] / baseline
                            if baseline > 0 else None)

    registry = obs.MetricsRegistry()  # only for the report envelope
    report = build_report(registry, label=label, context={
        "base_chars": base_chars,
        "extends": extends,
        "chunk_chars": chunk_chars,
        "buffer_pages": buffer_pages,
        "repeats": repeats,
        "seed": seed,
    })
    report["wal"] = results
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="write a BENCH_wal-<label>.json snapshot of "
                    "extend throughput per WAL fsync policy")
    parser.add_argument("-o", "--outdir", default="benchmarks")
    parser.add_argument("--label",
                        help="snapshot label (default: timestamp)")
    parser.add_argument("--base-chars", type=int, default=4000)
    parser.add_argument("--extends", type=int, default=64)
    parser.add_argument("--chunk-chars", type=int, default=64)
    parser.add_argument("--buffer-pages", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=29)
    args = parser.parse_args(argv)

    label = args.label or time.strftime("%Y%m%d-%H%M%S")
    report = collect_snapshot(
        base_chars=args.base_chars, extends=args.extends,
        chunk_chars=args.chunk_chars, buffer_pages=args.buffer_pages,
        repeats=args.repeats, seed=args.seed, label=label)
    os.makedirs(args.outdir, exist_ok=True)
    path = os.path.join(args.outdir, f"BENCH_wal-{label}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"wrote {path}")
    for name, _, _ in CONFIGURATIONS:
        data = report["wal"][name]
        print(f"  {name:8s}: {data['extends_per_sec']:,.0f} extends/s "
              f"({data['chars_per_sec']:,.0f} chars/s, "
              f"{data['slowdown']:.2f}x baseline; "
              f"{data['pool_lookups_per_char']:.2f} lookups/char, "
              f"{data['reads_per_kchar']:.0f} reads and "
              f"{data['writes_per_kchar']:.0f} writes per 1k chars; "
              f"log {data['log_bytes_per_char']:.2f} B/char, reopen "
              f"{1000 * data['reopen_seconds']:.1f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
