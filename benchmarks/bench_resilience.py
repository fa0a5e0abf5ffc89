"""Resilience-layer overhead snapshot (``BENCH_resilience-*.json``).

The resilience work threads a cooperative cancellation token through
the traversal and occurrence-scan hot loops. This script measures what
that costs when nothing is being cancelled — the only case that
matters for steady-state throughput::

    PYTHONPATH=src python benchmarks/bench_resilience.py -o benchmarks

Three measurements, each best-of-``repeats``:

* ``query``: ``search.find_all`` with ``cancel=None`` (the untouched
  pre-resilience hot path) vs. a live token with a far-future deadline
  (the path every ``QueryService`` query takes). The ``overhead_pct``
  figure is the headline: the target is **< 3%**. Measurements are
  interleaved best-of-``repeats``; on a contended host the noise floor
  is a few percent either way, so treat a single ``within_target``
  flip as a re-run prompt, not a regression.
* ``batch``: the same comparison through ``batch_find_all`` (token per
  traversal plus chunked occurrence sweep).
* ``primitives``: raw ops/sec of the per-call breaker protocol
  (``allow`` + ``record_success``) and a no-fault ``RetryPolicy.call``
  round trip, to show the per-shard and per-read bookkeeping is
  microseconds, not milliseconds.

The report uses the shared ``BENCH_*.json`` envelope so CI collects it
with the other snapshots.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro import obs
from repro.core import search
from repro.core.batch import batch_find_all
from repro.core.index import SpineIndex
from repro.obs.report import build_report
from repro.resilience import (CancellationToken, CircuitBreaker,
                              Deadline, RetryPolicy)
from repro.sequences import generate_dna

#: The headline target: token checks may cost at most this much.
OVERHEAD_TARGET_PCT = 3.0


def _best_seconds(fn, repeats):
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _compare(baseline_fn, token_fn, repeats):
    """Best-of timings for the two variants, interleaved (so clock
    drift and cache warming hit both sides equally), after one warmup
    round each."""
    baseline_fn()
    token_fn()
    base = token = None
    for _ in range(repeats):
        started = time.perf_counter()
        baseline_fn()
        elapsed = time.perf_counter() - started
        base = elapsed if base is None else min(base, elapsed)
        started = time.perf_counter()
        token_fn()
        elapsed = time.perf_counter() - started
        token = elapsed if token is None else min(token, elapsed)
    overhead = 100.0 * (token - base) / base if base > 0 else 0.0
    return {
        "baseline_seconds": base,
        "token_seconds": token,
        "overhead_pct": overhead,
        "within_target": overhead < OVERHEAD_TARGET_PCT,
    }


def _make_workload(text, patterns, pattern_length, seed):
    rng = random.Random(seed)
    return [text[start:start + pattern_length]
            for start in (rng.randrange(0, len(text) - pattern_length)
                          for _ in range(patterns))]


def _far_future_token():
    return CancellationToken(Deadline.after(3600.0), op="bench")


def _query_overhead(index, workload, repeats):
    limit = len(index)

    def baseline():
        for pattern in workload:
            search.find_all(index, pattern, limit, None)

    def with_token():
        for pattern in workload:
            search.find_all(index, pattern, limit, _far_future_token())

    return _compare(baseline, with_token, repeats)


def _batch_overhead(index, workload, repeats, rounds=10):
    # One batch is a few milliseconds — too short to time reliably on
    # a busy host. Each measurement runs ``rounds`` batches.
    def baseline():
        for _ in range(rounds):
            batch_find_all(index, workload)

    def with_token():
        for _ in range(rounds):
            batch_find_all(index, workload,
                           cancel=_far_future_token())

    return _compare(baseline, with_token, repeats)


def _primitive_costs(repeats, calls=100_000):
    breaker = CircuitBreaker("bench")

    def breaker_round():
        for _ in range(calls):
            breaker.allow()
            breaker.record_success()

    policy = RetryPolicy(retries=3)
    payload = "x"

    def retry_round():
        for _ in range(calls):
            policy.call(lambda: payload)

    checkpoint_token = _far_future_token()

    def checkpoint_round():
        checkpoint = checkpoint_token.checkpoint
        for _ in range(calls):
            checkpoint()

    out = {}
    for name, fn in (("breaker_call", breaker_round),
                     ("retry_noop_call", retry_round),
                     ("token_checkpoint", checkpoint_round)):
        seconds = _best_seconds(fn, repeats)
        out[name] = {
            "calls": calls,
            "seconds": seconds,
            "ops_per_sec": calls / seconds if seconds > 0 else None,
        }
    return out


def collect_snapshot(scale=60_000, patterns=96, pattern_length=8,
                     repeats=9, seed=13, label=None):
    text = generate_dna(scale, seed=seed)
    workload = _make_workload(text, patterns, pattern_length, seed + 1)
    index = SpineIndex(text)

    query = _query_overhead(index, workload, repeats)
    batch = _batch_overhead(index, workload, repeats)
    primitives = _primitive_costs(max(2, repeats // 2))

    registry = obs.MetricsRegistry()  # only for the report envelope
    report = build_report(registry, label=label, context={
        "scale": scale,
        "patterns": patterns,
        "pattern_length": pattern_length,
        "repeats": repeats,
        "seed": seed,
        "overhead_target_pct": OVERHEAD_TARGET_PCT,
    })
    report["resilience"] = {
        "query": query,
        "batch": batch,
        "primitives": primitives,
    }
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="write a BENCH_resilience-<label>.json snapshot "
                    "of cancellation/breaker/retry overhead")
    parser.add_argument("-o", "--outdir", default="benchmarks")
    parser.add_argument("--label",
                        help="snapshot label (default: timestamp)")
    parser.add_argument("--scale", type=int, default=60_000)
    parser.add_argument("--patterns", type=int, default=96)
    parser.add_argument("--pattern-length", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)

    label = args.label or time.strftime("%Y%m%d-%H%M%S")
    report = collect_snapshot(
        scale=args.scale, patterns=args.patterns,
        pattern_length=args.pattern_length, repeats=args.repeats,
        seed=args.seed, label=label)
    os.makedirs(args.outdir, exist_ok=True)
    path = os.path.join(args.outdir, f"BENCH_resilience-{label}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    resilience = report["resilience"]
    print(f"wrote {path}")
    for section in ("query", "batch"):
        data = resilience[section]
        verdict = "OK" if data["within_target"] else "OVER TARGET"
        print(f"  {section}: token overhead "
              f"{data['overhead_pct']:+.2f}% "
              f"(target < {OVERHEAD_TARGET_PCT}%) [{verdict}]")
    for name, data in resilience["primitives"].items():
        print(f"  {name}: {data['ops_per_sec']:,.0f} ops/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
