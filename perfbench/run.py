"""The repository benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload point-query --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the hardware-free count pass twice (the counts must
match), then half the time untraced and half traced, and reports the
per-layer metrics; its spans and counts go to
``perfbench/out/trace-<workload>-seed<seed>.json``. Every answer is
checked against an oracle after the timed phases. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 1 when any answer was wrong or the counts differed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("point-query", "stream-match", "disk-ingest",
                  "serve-batch")
#: Set-ups per run; ``setup_s`` and ``index.build_s`` are their medians.
SETUP_REPEATS = 3
#: Spans kept in the dump (the summary covers all of them).
DUMP_SPANS = 20_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chars", type=int, default=None,
                        help="reference text length (default: the "
                             "199500-char HC21 pseudo-genome)")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for the span dump and scratch "
                             "index files")
    return parser.parse_args(argv)


def ratio(num, den):
    return num / den if den else 0.0


def read_latencies(phase):
    return sorted(s.latency for s in phase.samples if s.read)


def end_to_end(workload, phase, setups):
    from common import percentile

    reads = read_latencies(phase)
    build_s = statistics.median([b for _, b in setups])
    completed = phase.ops - phase.failed()
    return {
        "setup_s": (statistics.median([s for s, _ in setups]), "s"),
        "ops_per_s": (completed / phase.active_s, "ops/s"),
        "query_p50_ms": (percentile(reads, 0.50) * 1e3, "ms"),
        "query_p99_ms": (percentile(reads, 0.99) * 1e3, "ms"),
        "build_chars_per_s": (workload.build_chars_per_s(phase, build_s),
                              "chars/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def paired_latency(plain, traced):
    """Total latency of the ops both phases ran, pairing the
    n-th run of each pool entry in one phase with its n-th run in the
    other (both phases start at the head of the pool)."""
    runs = {}
    for s in plain.samples:
        if not s.failed:
            runs.setdefault(s.k, []).append(s.latency)
    seen = {}
    plain_s = traced_s = 0.0
    for s in traced.samples:
        n = seen.get(s.k, 0)
        if s.failed or n >= len(runs.get(s.k, ())):
            continue
        seen[s.k] = n + 1
        plain_s += runs[s.k][n]
        traced_s += s.latency
    return plain_s, traced_s


def per_layer(workload, counts, plain, traced, recorder, setups):
    """Per-layer metrics as ``{name: (value, unit)}``, and the
    numerator and denominator of every ratio among them."""
    from common import percentile
    from spans import role_totals, self_times

    c = counts.get
    spans = recorder.spans
    roles = role_totals(spans, self_times(spans), recorder.factors)
    read_kinds = {"op." + kind for kind, read, _ in workload.pool if read}
    roots = [s for s in spans if s[1] is None]
    reads = [s for s in roots if s[3] in read_kinds]
    read_time = sum(end - start for *_, start, end in reads)
    all_time = sum(end - start for *_, start, end in roots)
    plain_s, traced_s = paired_latency(plain, traced)
    sharded_calls = c("shard.queries", 0) + c("shard.batches", 0)
    ops = sum(v for k, v in counts.items()
              if k.startswith("ops.") and k != "ops.read")

    def role(name, selected):
        return sum(roles[s[0]].get(name, 0.0) for s in selected)

    ratios = [  # (name, unit, numerator, denominator)
        ("traverse_ms", "ms", role("traverse", reads) * 1e3, len(reads)),
        ("scan_ms", "ms", role("scan", reads) * 1e3, len(reads)),
        ("front_ms", "ms", role("front", reads) * 1e3, len(reads)),
        ("tracing.overhead_frac", "fraction", traced_s - plain_s, plain_s),
        ("disk.write_frac", "fraction", role("write", roots), all_time),
        ("serve.overhead_frac", "fraction", role("serve", reads),
         read_time),
        ("shard.merge_frac", "fraction", role("shard", reads), read_time),
        ("search.steps_per_query", "count", c("search.steps", 0),
         c("search.queries", 0)),
        ("search.scan_nodes_per_query", "count", c("search.scan_nodes", 0),
         c("search.queries", 0)),
        ("search.scan_yield", "fraction", c("search.occurrences", 0),
         c("search.scan_nodes", 0)),
        ("matching.checks_per_char", "count", c("matching.checks", 0),
         c("matching.chars", 0)),
        ("matching.link_hops_per_char", "count", c("matching.link_hops", 0),
         c("matching.chars", 0)),
        ("matching.resolve_scan_nodes", "count", c("resolve_scan_nodes", 0),
         c("matching.queries", 0)),
        ("batch.scan_nodes_per_batch", "count", c("batch.scan_nodes", 0),
         c("batch.batches", 0)),
        ("batch.unique_frac", "fraction", c("batch.unique_patterns", 0),
         c("batch.patterns", 0)),
        ("shard.fanout_per_query", "count", c("shard.route.fanout", 0),
         sharded_calls),
        ("shard.merge_dropped_per_query", "count",
         c("shard.merge.dropped", 0), sharded_calls),
        ("disk.sweep_nodes_per_find_all", "count",
         c("disk.search.scan_nodes", 0), c("ops.find_all", 0)),
        ("disk.bytes_per_char", "B/char",
         c("bytes.page_file", 0) + c("bytes.wal", 0),
         c("chars.indexed", 0)),
        ("buffer.hit_rate", "fraction", c("io.buffer_hits", 0),
         c("io.buffer_hits", 0) + c("io.buffer_misses", 0)),
        ("buffer.evictions_per_op", "count", c("io.evictions", 0), ops),
        ("pager.reads_per_query", "count", c("io.reads", 0),
         c("ops.read", 0)),
        ("pager.sequential_read_frac", "fraction",
         c("io.sequential_reads", 0), c("io.reads", 0)),
        ("pager.writes_per_kchar", "count", c("io.writes", 0) * 1000,
         c("chars.extended", 0)),
        ("wal.bytes_per_char", "B/char", c("wal.bytes", 0),
         c("chars.extended", 0)),
        ("wal.fsyncs_per_extend", "count", c("wal.fsyncs", 0),
         c("ops.extend", 0)),
    ]
    errors = Counter(plain.errors) + Counter(traced.errors)
    metrics = {
        "index.build_s": (statistics.median([b for _, b in setups]), "s"),
        "loadgen.lag_p99_ms": (
            percentile(sorted(s.lag for s in plain.samples), 0.99) * 1e3,
            "ms"),
        "resilience.shed": (errors["OverloadedError"], "count"),
        "resilience.deadline_hits": (errors["DeadlineExceededError"],
                                     "count"),
        "pager.read_retries": (c("io.read_retries", 0), "count"),
    }
    metrics.update((name, (ratio(num, den), unit))
                   for name, unit, num, den in ratios)
    bases = {name: {"numerator": num, "denominator": den}
             for name, _, num, den in ratios}
    return metrics, bases


def write_dump(path, workload, args, counts, deterministic, metrics, bases,
               recorder, phases):
    from common import REFERENCE_LOOP_S
    from spans import self_times, summarize

    spans = recorder.spans
    own = self_times(spans)
    origin = min((s[4] for s in spans), default=0.0)
    dump = {
        "workload": workload.name,
        "reference_loop_s": REFERENCE_LOOP_S,
        "seed": args.seed,
        "inputs": workload.describe(),
        "counts": counts,
        "counts_deterministic": deterministic,
        "phases": phases,
        "per_layer": {name: {"value": value, "unit": unit,
                             **({"base": bases[name]}
                                if name in bases else {})}
                      for name, (value, unit) in metrics.items()},
        "span_summary": summarize(spans, own),
        "spans_total": len(spans),
        "spans": [
            {"id": sid, "parent": parent, "request": request, "name": name,
             "start_ms": (start - origin) * 1e3,
             "duration_ms": (end - start) * 1e3,
             "self_ms": own[sid] * 1e3,
             "speed_factor": recorder.factors.get(request, 1.0)}
            for sid, parent, request, name, start, end
            in sorted(spans, key=lambda s: s[0])[:DUMP_SPANS]],
    }
    with open(path, "w") as handle:
        json.dump(dump, handle, indent=1, default=str)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import SpanRecorder, tracing
    from workloads import WORKLOADS
    from common import REFERENCE_CHARS, Speed, closed_loop

    chars = args.chars or REFERENCE_CHARS
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workload = None
    speed = Speed()
    try:
        # (set-up seconds, construction seconds) per repeat at reference
        # speed; set-up is scaled by the mean factor measured around it.
        setups = []
        for repeat in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = WORKLOADS[args.workload](
                args.seed, chars, str(workdir / f"setup-{repeat}"))
            before = speed.measure()
            started = time.perf_counter()
            build_s = workload.setup(speed)
            setup_s = time.perf_counter() - started
            factor = (before + speed.measure()) / 2
            setups.append((setup_s * factor, build_s))

        deterministic = True
        if args.trace:
            counts = workload.count_pass()
            deterministic = counts == workload.count_pass()
            plain = closed_loop(workload, args.seconds / 2, speed)
            recorder = SpanRecorder()
            with tracing(recorder):
                traced = closed_loop(workload, args.seconds / 2, speed,
                                     recorder)
            phases = [plain, traced]
        else:
            phases = [closed_loop(workload, args.seconds, speed)]

        wrong = sum(workload.verify(phase.answers) for phase in phases)
        attempted = sum(phase.ops for phase in phases)
        failed = sum(phase.failed() for phase in phases) + wrong

        if args.trace:
            metrics, bases = per_layer(workload, counts, plain, traced,
                                       recorder, setups)
            metrics["error_rate"] = (ratio(failed, attempted), "fraction")
            dump = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            write_dump(dump, workload, args, counts, deterministic,
                       metrics, bases, recorder,
                       [{"name": name, "ops": phase.ops,
                         "active_s": phase.active_s,
                         "errors": phase.errors}
                        for name, phase in zip(("untraced", "traced"),
                                               phases)])
            print(f"perfbench: spans and counts written to {dump}",
                  file=sys.stderr)
        else:
            metrics = end_to_end(workload, phases[0], setups)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if wrong:
        print(f"perfbench: {wrong} answers differ from the oracle",
              file=sys.stderr)
    if not deterministic:
        print("perfbench: the two count passes differ", file=sys.stderr)
    correct = wrong == 0 and deterministic
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
