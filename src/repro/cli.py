"""Command-line interface: ``python -m repro <command>``.

A small operational surface over the library for shell users:

========  =============================================================
command   purpose
========  =============================================================
corpus    materialize a named pseudo-genome to FASTA
build     build a SPINE index from a FASTA file and save it
search    find a pattern's occurrences in a saved index
match     stream a query FASTA against a saved index (Section 4's
          maximal-match operation)
stats     structural statistics and the space model of a saved index
verify    check a saved index's invariants
profile   run an instrumented build/search/disk workload and emit a
          machine-readable metrics report (JSON)
explain   step-by-step account of a pattern's traversal — which ribs
          were attempted, every PT accept/reject decision, the extrib
          chain followed (the paper's false-positive exclusion, made
          visible per query)
========  =============================================================

``search`` and ``profile`` additionally take ``--trace-out FILE`` to
record sampled query spans (:mod:`repro.obs.trace`) as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.exceptions import ReproError


def _cmd_corpus(args):
    from repro.sequences import load_corpus_sequence, write_fasta

    text = load_corpus_sequence(args.name, scale=args.scale)
    write_fasta(args.output, [(f"{args.name} scale={args.scale}", text)])
    print(f"wrote {len(text)} chars to {args.output}")
    return 0


def _load_first_record(path):
    from repro.sequences import read_fasta

    records = read_fasta(path)
    if not records:
        raise ReproError(f"{path}: no FASTA records")
    return records[0]


def _cmd_build(args):
    from repro.core.index import SpineIndex
    from repro.core.serialize import save_generalized, save_index

    if args.generalized:
        from repro.alphabet import alphabet_for
        from repro.core.generalized import GeneralizedSpineIndex
        from repro.sequences import read_fasta

        records = read_fasta(args.fasta)
        if not records:
            raise ReproError(f"{args.fasta}: no FASTA records")
        alphabet = alphabet_for("".join(seq for _, seq in records))
        gindex = GeneralizedSpineIndex(alphabet)
        started = time.perf_counter()
        for header, text in records:
            gindex.add_string(text, name=header)
        elapsed = time.perf_counter() - started
        save_generalized(gindex, args.output)
        total = sum(gindex.string_length(s)
                    for s in range(gindex.string_count))
        print(f"indexed {gindex.string_count} records "
              f"({total} chars) in {elapsed:.2f}s -> {args.output}")
        return 0
    header, text = _load_first_record(args.fasta)
    started = time.perf_counter()
    index = SpineIndex(text)
    elapsed = time.perf_counter() - started
    save_index(index, args.output)
    print(f"indexed {header!r}: {len(index)} chars in {elapsed:.2f}s "
          f"-> {args.output}")
    return 0


def _trace_session(args):
    """Context manager enabling global tracing when ``--trace-out``
    was given (a no-op context otherwise); exports on exit."""
    import contextlib

    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def session():
        from repro.obs.trace import tracing_enabled

        with tracing_enabled(sample_every=args.trace_sample) as tracer:
            try:
                yield tracer
            finally:
                count = tracer.export_jsonl(trace_out)
                print(f"wrote {count} trace span(s) to {trace_out}",
                      file=sys.stderr)

    return session()


def _cmd_search(args):
    from repro.core.serialize import load_generalized, load_index
    from repro.exceptions import StorageError

    with _trace_session(args):
        if args.generalized:
            gindex = load_generalized(args.index)
            hits = gindex.find_all(args.pattern)
            print(f"{len(hits)} occurrence(s)")
            for sid, local in hits:
                print(f"{gindex.string_name(sid)}\t{local}")
            return 0 if hits else 1
        index = load_index(args.index)
        if args.all:
            starts = index.find_all(args.pattern)
            print(f"{len(starts)} occurrence(s)")
            for start in starts:
                print(start)
            return 0 if starts else 1
        start = index.find_first(args.pattern)
        if start is None:
            print("not found")
            return 1
        print(start)
        return 0


def _cmd_batch(args):
    """Answer a whole patterns file with one shared backbone scan."""
    import json

    from repro.core.batch import batch_find_all
    from repro.core.serialize import load_index

    patterns = _load_patterns_file(args.patterns_file)
    index = load_index(args.index)
    with _trace_session(args):
        results = batch_find_all(index, patterns, threads=args.threads)
    hits = sum(1 for r in results if r.found)
    if args.json:
        print(json.dumps({
            "patterns": len(results),
            "hits": hits,
            "results": [{
                "pattern": r.pattern,
                "status": r.status,
                "count": len(r.starts),
                "starts": r.starts,
            } for r in results],
        }, indent=2))
    else:
        print(f"{hits}/{len(results)} pattern(s) found")
        for r in results:
            starts = ",".join(map(str, r.starts))
            print(f"{r.pattern}\t{r.status}\t{len(r.starts)}\t{starts}")
    return 0 if hits else 1


def _cmd_match(args):
    from repro.core.matching import maximal_matches
    from repro.core.serialize import load_index

    index = load_index(args.index)
    header, query = _load_first_record(args.query)
    matches, result = maximal_matches(index, query,
                                      min_length=args.min_length)
    print(f"query {header!r}: {len(matches)} maximal match(es) "
          f">= {args.min_length} (checked {result.checks} nodes)")
    for match in matches:
        positions = ",".join(map(str, match.data_starts))
        print(f"{match.query_start}\t{match.length}\t{positions}")
    return 0


def _cmd_approx(args):
    from repro.align.approximate import approximate_find_all
    from repro.core.serialize import load_index

    index = load_index(args.index)
    hits = approximate_find_all(index, args.pattern, args.max_errors)
    print(f"{len(hits)} end position(s) within {args.max_errors} "
          "error(s)")
    for end, distance in hits:
        print(f"{end}\t{distance}")
    return 0 if hits else 1


def _cmd_repeats(args):
    from repro.core.analysis import (
        longest_repeated_substring, repeat_fraction)
    from repro.core.serialize import load_index

    index = load_index(args.index)
    sub, hit = longest_repeated_substring(index)
    if hit is None:
        print("no repeated substrings")
        return 0
    print(f"longest repeat: {hit.length} chars at "
          f"{hit.earlier_start} and {hit.later_start}")
    preview = sub if len(sub) <= 60 else sub[:57] + "..."
    print(f"  {preview}")
    for min_length in args.thresholds:
        frac = repeat_fraction(index, min_length)
        print(f"repeat(>= {min_length}) coverage: {100 * frac:.1f}%")
    return 0


def _cmd_dot(args):
    from repro.core.serialize import load_index
    from repro.viz import spine_to_dot, spine_to_text

    index = load_index(args.index)
    if args.text:
        print(spine_to_text(index))
    else:
        print(spine_to_dot(index))
    return 0


def _cmd_stats(args):
    from repro.core.layout import layout_report
    from repro.core.serialize import load_index
    from repro.core.stats import collect_statistics

    index = load_index(args.index)
    stats = collect_statistics(index)
    report = layout_report(stats)
    print(f"length:               {stats.length}")
    print(f"alphabet size:        {stats.alphabet_size}")
    print(f"ribs / extribs:       {stats.rib_count} / "
          f"{stats.extrib_count}")
    print(f"max label (LEL/PT):   {stats.max_label} "
          f"({stats.max_lel}/{stats.max_pt})")
    print(f"downstream nodes:     {stats.downstream_percentage:.1f}%")
    print(f"optimized layout:     "
          f"{report['optimized_bytes_per_char']:.2f} bytes/char")
    return 0


def _load_patterns_file(path):
    """One pattern per line; blank lines and ``#`` comments skipped."""
    patterns = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                patterns.append(line)
    if not patterns:
        raise ReproError(f"{path}: no patterns")
    return patterns


def _cmd_profile(args):
    """Instrumented end-to-end run: build, persist, query, disk —
    every layer reporting into one metrics registry (repro.obs),
    optionally with sampled query-path tracing (repro.obs.trace)."""
    import itertools
    import json
    import os
    import random
    import tempfile

    from repro import obs
    from repro.core.index import SpineIndex
    from repro.core.matching import matching_statistics
    from repro.core.serialize import load_index, save_index
    from repro.disk.spine_disk import DiskSpineIndex
    from repro.obs.report import build_report, observe_index

    header, text = _load_first_record(args.fasta)
    rng = random.Random(args.seed)
    plen = max(1, min(args.pattern_length, len(text)))

    def sample_pattern():
        start = rng.randrange(0, max(1, len(text) - plen + 1))
        return text[start:start + plen]

    if args.patterns_file:
        # A real query workload: cycle through the supplied patterns
        # (they flow through the same trace sampling as synthetic ones).
        workload = _load_patterns_file(args.patterns_file)
        patterns = itertools.cycle(workload)
        next_pattern = lambda: next(patterns)  # noqa: E731
    else:
        workload = None
        next_pattern = sample_pattern

    with _trace_session(args) as tracer, \
            obs.metrics_enabled() as registry:
        index = SpineIndex(text)
        for _ in range(args.queries):
            index.find_all(next_pattern())
            index.contains(next_pattern())
        query = "".join(sample_pattern()
                        for _ in range(max(1, args.queries // 10)))
        matching_statistics(index, query)
        observe_index(registry, index)

        # Persistence round trip (section bytes and timings).
        fd, tmp = tempfile.mkstemp(suffix=".spine")
        os.close(fd)
        try:
            save_index(index, tmp)
            load_index(tmp)
        finally:
            os.unlink(tmp)

        # Disk layer: page-resident build + queries through the buffer
        # pool (in memory — identical I/O accounting, no temp file).
        disk_chars = min(len(text), args.disk_chars)
        disk = DiskSpineIndex(alphabet=index.alphabet,
                              buffer_pages=args.buffer_pages)
        disk.extend(text[:disk_chars])
        for _ in range(args.queries):
            pattern = next_pattern()[:max(1, min(plen, disk_chars))]
            disk.contains(pattern)
        disk.io_snapshot()
        disk.close()

        report = build_report(registry, label=header, context={
            "fasta": args.fasta,
            "chars": len(text),
            "queries": args.queries,
            "pattern_length": plen,
            "patterns_file": args.patterns_file,
            "workload_patterns": len(workload) if workload else 0,
            "disk_chars": disk_chars,
            "buffer_pages": args.buffer_pages,
            "seed": args.seed,
        })
        if tracer is not None:
            report["trace"] = tracer.summary()
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote metrics report to {args.output}")
    else:
        print(payload)
    return 0


def _load_serving_index(path, **disk_options):
    """Open any persisted index layer for serving, auto-detected:
    a directory with a shard manifest loads sharded, a ``SPDK``-magic
    file reopens the page-resident disk layer, anything else goes
    through the flat serializer.  ``disk_options`` (e.g. WAL fsync
    policy) reach the disk layer — flat files ignore them."""
    import os

    if os.path.isdir(path):
        from repro.shard import ShardedSpineIndex

        return ShardedSpineIndex.load(path, **disk_options), "shard"
    with open(path, "rb") as handle:
        head = handle.read(8192)
    # The disk layer commits generation g to metadata slot g % 2, so
    # the SPDK magic may sit on page 0 or page 1 (default page size).
    if head[:4] == b"SPDK" or head[4096:4100] == b"SPDK":
        from repro.disk.spine_disk import DiskSpineIndex

        return DiskSpineIndex.open(path, **disk_options), "disk"
    from repro.core.serialize import load_index

    return load_index(path), "memory"


def _parse_inject_fault(spec):
    """``SITE:MODE[:NTH[:COUNT[:DELAY]]]`` for ``serve --inject-fault``."""
    parts = spec.split(":")
    if len(parts) < 2 or len(parts) > 5:
        raise ReproError(
            "--inject-fault expects SITE:MODE[:NTH[:COUNT[:DELAY]]], "
            f"got {spec!r}")
    site, mode = parts[0], parts[1]
    try:
        nth = int(parts[2]) if len(parts) > 2 else 1
        count = int(parts[3]) if len(parts) > 3 else 1
        delay = float(parts[4]) if len(parts) > 4 else None
    except ValueError as exc:
        raise ReproError(f"--inject-fault: bad number in {spec!r}: "
                         f"{exc}") from exc
    return site, mode, nth, count, delay


def _cmd_serve(args):
    """Serve a saved index with live telemetry: the stats endpoint
    (``/metrics`` + ``/healthz`` + ``/stats``), streaming latency
    quantiles, the slow-query log, and an optional JSONL metrics
    flusher — plus a self-generated query load so the endpoint has
    something to show (and CI has something to scrape).

    The resilience knobs map straight onto
    :class:`~repro.serve.QueryService`: ``--deadline-ms`` bounds every
    query, ``--max-concurrent``/``--max-queue`` put admission control
    in front of the pool, ``--degraded`` turns sharded fan-out
    failures into partial answers, and ``--inject-fault`` arms a
    storage failpoint so a chaos run can watch the service absorb
    faults while ``/healthz`` stays up."""
    import itertools
    import random

    from repro import obs
    from repro.exceptions import (DeadlineExceededError,
                                  OverloadedError, StorageError)
    from repro.obs.export import MetricsFlusher
    from repro.obs.slowlog import get_slow_log
    from repro.serve import QueryService
    from repro.storage import failpoints

    wal_fsync = (None if args.wal_fsync == "none" else args.wal_fsync)
    index, kind = _load_serving_index(args.index, wal_fsync=wal_fsync)
    obs.enable_metrics(reset=True)
    slow_log = get_slow_log()
    if args.slow_threshold_ms is not None:
        slow_log.enable(threshold=args.slow_threshold_ms / 1000.0)
    if kind == "shard" and args.breaker_threshold > 0:
        index.enable_breakers(
            failure_threshold=args.breaker_threshold,
            reset_timeout=args.breaker_reset)

    rng = random.Random(args.seed)
    text = getattr(index, "text", None)
    if args.patterns_file:
        workload = itertools.cycle(_load_patterns_file(
            args.patterns_file))
        next_pattern = lambda: next(workload)  # noqa: E731
    elif text is not None:
        plen = max(1, min(args.pattern_length, len(text)))

        def next_pattern():
            start = rng.randrange(0, max(1, len(text) - plen + 1))
            return text[start:start + plen]
    elif args.load > 0:
        raise ReproError(
            f"{args.index}: a {kind} index does not expose its text; "
            "--load needs --patterns-file")
    else:
        next_pattern = None

    flusher = None
    if args.metrics_out:
        flusher = MetricsFlusher(
            obs.get_registry(), args.metrics_out,
            interval=args.flush_interval,
            context={"index": args.index, "command": "serve"})
        flusher.start()

    if args.inject_fault:
        site, mode, nth, count, delay = _parse_inject_fault(
            args.inject_fault)
        if delay is None:
            failpoints.fail_at(site, mode=mode, nth=nth, count=count)
        else:
            failpoints.fail_at(site, mode=mode, nth=nth, count=count,
                               delay=delay)

    scrubber = None
    if args.scrub_interval is not None and args.scrub_interval > 0:
        from repro.storage.scrub import Scrubber

        scrubber = Scrubber(index, interval=args.scrub_interval,
                            pages_per_second=args.scrub_rate).start()

    extend_rng = random.Random(args.seed + 1)
    extend_symbols = getattr(index, "alphabet", None)
    extend_symbols = (extend_symbols.symbols if extend_symbols
                      is not None else "ACGT")
    if args.extend_load > 0 and not hasattr(index, "extend"):
        raise ReproError(
            f"{args.index}: a {kind} index is not extendable; drop "
            "--extend-load")

    service = QueryService(
        index, threads=args.threads,
        stats_port=args.stats_port, stats_host=args.host,
        default_deadline=(args.deadline_ms / 1000.0
                          if args.deadline_ms is not None else None),
        max_concurrent=args.max_concurrent, max_queue=args.max_queue,
        degraded=args.degraded)
    server = service.stats_server
    print(f"serving {args.index} ({len(index)} chars, {kind} layer)")
    print(f"stats endpoint: {server.url('/metrics')}  "
          f"{server.url('/healthz')}  {server.url('/stats')}")
    sys.stdout.flush()

    deadline = (time.monotonic() + args.duration
                if args.duration is not None else None)
    queries = 0
    timeouts = 0
    shed = 0
    partial = 0
    faults = 0
    try:
        while deadline is None or time.monotonic() < deadline:
            if args.load > 0:
                batch = [next_pattern()
                         for _ in range(min(args.load, 64))]
                try:
                    results = service.batch_find_all(batch)
                    partial += sum(
                        1 for m in results
                        if getattr(m.starts, "complete", True) is False)
                    starts = service.find_all(next_pattern())
                    if getattr(starts, "complete", True) is False:
                        partial += 1
                except DeadlineExceededError:
                    timeouts += 1
                except OverloadedError:
                    shed += 1
                except StorageError:
                    # Retry budget exhausted (or corruption surfaced):
                    # the query failed structurally, serving continues.
                    faults += 1
                queries += len(batch) + 1
            if args.extend_load > 0:
                piece = "".join(
                    extend_rng.choice(extend_symbols)
                    for _ in range(args.extend_load))
                try:
                    index.extend(piece)
                except failpoints.CrashInjected:
                    # An armed wal.append/wal.fsync fault "killed" the
                    # writer mid-extend; the harness role of this loop
                    # is the restarted process, which keeps serving —
                    # the WAL guarantees no index state was half
                    # applied.
                    faults += 1
                except (StorageError, OSError):
                    faults += 1
            if args.load <= 0 and args.extend_load <= 0:
                time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        if args.inject_fault:
            failpoints.clear_failpoints()
        if scrubber is not None:
            scrubber.stop()
        if flusher is not None:
            flusher.stop()
        service.close()
        if args.slowlog_out:
            with open(args.slowlog_out, "w") as handle:
                json.dump(slow_log.snapshot(), handle, indent=1,
                          sort_keys=True)
                handle.write("\n")
            print(f"wrote slow-query log to {args.slowlog_out}")
        slow_recorded = (len(slow_log) if slow_log.enabled else None)
        slow_log.disable()
        obs.disable_metrics()
        if hasattr(index, "close"):
            index.close()
    resilience = (f"{timeouts} timed out, {shed} shed, "
                  f"{partial} partial, {faults} storage error(s)")
    if slow_recorded is not None:
        print(f"served {queries} queries ({resilience}); "
              f"{slow_recorded} slow "
              f"(threshold {slow_log.threshold * 1000:.1f} ms)")
    else:
        print(f"served {queries} queries ({resilience})")
    return 0


def _cmd_shard_build(args):
    from repro.shard import ShardedSpineIndex

    header, text = _load_first_record(args.fasta)
    started = time.perf_counter()
    index = ShardedSpineIndex.build(
        text, shards=args.shards, workers=args.workers,
        max_pattern_len=args.max_pattern_len, layer=args.layer,
        path=args.output, split_threshold=args.split_threshold)
    elapsed = time.perf_counter() - started
    try:
        print(f"indexed {header!r}: {len(index)} chars into "
              f"{index.shard_count} {args.layer} shard(s) with "
              f"{args.workers} worker(s) in {elapsed:.2f}s "
              f"-> {args.output}")
    finally:
        index.close()
    return 0


def _cmd_shard_query(args):
    from repro.shard import ShardedSpineIndex

    index = ShardedSpineIndex.load(args.index, layer=args.layer)
    try:
        if len(args.patterns) > 1:
            for match in index.batch_find_all(args.patterns):
                starts = " ".join(map(str, match.starts))
                print(f"{match.pattern}\t{match.status}\t"
                      f"{len(match.starts)}\t{starts}")
        else:
            pattern = args.patterns[0]
            starts = index.find_all(pattern)
            if args.count:
                print(len(starts))
            else:
                print(f"{len(starts)} occurrence(s)")
                for start in starts:
                    print(start)
    finally:
        index.close()
    return 0


def _cmd_shard_stats(args):
    from repro.shard import ShardedSpineIndex

    index = ShardedSpineIndex.load(args.index)
    try:
        stats = index.stats()
    finally:
        index.close()
    if args.json:
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0
    print(f"layer={stats['layer']} length={stats['length']} "
          f"max_pattern_len={stats['max_pattern_len']} "
          f"overlap={stats['overlap']} "
          f"shards={len(stats['shards'])}")
    for shard in stats["shards"]:
        print(f"  shard {shard['id']}: start={shard['start']} "
              f"owned={shard['owned_len']} local={shard['local_len']} "
              f"pending_overlap={shard['pending_overlap']}")
    return 0


def _cmd_explain(args):
    """Render the step-by-step traversal account of one pattern."""
    import json

    from repro.obs.explain import explain_pattern

    if (args.index is None) == (args.text is None):
        raise ReproError("explain needs exactly one of --index/--text")
    if args.text is not None:
        from repro.core.index import SpineIndex

        index = SpineIndex(args.text)
    else:
        from repro.core.serialize import load_index

        index = load_index(args.index)
    explanation = explain_pattern(index, args.pattern)
    if args.json:
        print(json.dumps(explanation.to_dict(), indent=2))
    else:
        print(explanation.text)
    return 0


def _cmd_verify(args):
    from repro.core.serialize import load_index
    from repro.core.verify import verify_index

    index = load_index(args.index)
    verify_index(index, deep=args.deep)
    print("OK")
    return 0


def _cmd_fuzz(args):
    """Differential fuzzing across the traversal layers (repro.check):
    seeded scenario stream, two independent oracles, layer-generic
    invariant checks, delta-debugging minimization and replayable JSON
    repro files."""
    from repro.check import replay_file, run_fuzz

    if args.replay:
        result = replay_file(args.replay)
        if result["reproduced"]:
            print(f"{args.replay}: REPRODUCED "
                  f"({len(result['divergences'])} divergence(s))")
            for entry in result["divergences"]:
                print(f"  [{entry['kind']}] layer={entry['layer']} "
                      f"op={entry['op']} pattern={entry['pattern']!r}")
                if entry["kind"] == "invariant":
                    print(f"    {entry['detail']}")
                else:
                    print(f"    expected {entry['expected']}, "
                          f"got {entry['got']}")
            return 1
        print(f"{args.replay}: did not reproduce "
              "(the recorded bug appears fixed)")
        return 0

    layers = [name.strip() for name in args.layers.split(",")
              if name.strip()]
    known = {"memory", "packed", "disk", "shard"}
    unknown = sorted(set(layers) - known)
    if unknown:
        raise ReproError(
            f"unknown layer(s) {', '.join(unknown)}; choose from "
            f"{', '.join(sorted(known))}")
    injection = None
    if args.inject:
        # Testing aid: force a wrong answer so the minimize/replay
        # pipeline can be demonstrated end to end. layer:op:marker.
        parts = args.inject.split(":", 2)
        if len(parts) != 3:
            raise ReproError("--inject expects LAYER:OP:MARKER")
        injection = {"layer": parts[0], "op": parts[1],
                     "marker": parts[2]}
    report = run_fuzz(
        seed=args.seed, budget=args.budget, layers=layers,
        max_cases=args.cases, out_dir=args.out_dir,
        minimize=not args.no_minimize, max_text=args.max_text,
        injection=injection,
        log=(lambda message: print(message, file=sys.stderr)))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        status = "clean" if report.ok else "DIVERGED"
        print(f"fuzz seed={report.seed} layers={','.join(layers)}: "
              f"{status} after {report.cases} case(s), "
              f"~{report.queries_hint} queries in "
              f"{report.elapsed:.1f}s")
        for entry in report.divergences:
            print(f"  [{entry['kind']}] layer={entry['layer']} "
                  f"op={entry['op']} pattern={entry['pattern']!r}")
        for path in report.repro_files:
            print(f"  repro file: {path}")
    return 0 if report.ok else 1


def _cmd_wal(args):
    from repro.disk.spine_disk import DiskSpineIndex
    from repro.storage.wal import WAL_SUFFIX, scan_wal, wal_path_for

    path = args.index
    if not path.endswith(WAL_SUFFIX):
        path = wal_path_for(path)
    try:
        with DiskSpineIndex.open(path[:-len(WAL_SUFFIX)],
                                 wal_fsync=None) as index:
            checkpoint_n = len(index)
    except (OSError, ReproError):
        checkpoint_n = None
    scan = scan_wal(path, checkpoint_n)
    doc = scan.to_dict(checkpoint_n)
    if args.json:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    elif not scan.exists:
        print(f"{path}: no WAL (nothing to replay)")
    elif not scan.header_ok:
        print(f"{path}: unreadable ({scan.torn_reason}); recovery "
              "reinitializes it as an empty log")
    else:
        print(f"{path}: {doc['records']} record(s), "
              f"{doc['chars']} char(s), LSN {doc['start_lsn']} to "
              f"{doc['last_lsn']}, base generation "
              f"{doc['base_generation']}")
        if checkpoint_n is not None:
            covers = "covers" if doc["covers_checkpoint"] else \
                "does not cover"
            print(f"  {covers} the active checkpoint "
                  f"({checkpoint_n} chars)")
        for damage in doc["damaged"]:
            print(f"  damaged frame at byte {damage['offset']} "
                  f"({damage['bytes']} bytes, skipped on reopen)")
        if scan.torn_reason is not None:
            print(f"  torn tail: {scan.torn_reason} "
                  f"({scan.tail_bytes} byte(s) truncated on reopen)")
        for record in scan.records[-args.tail:] if args.tail else ():
            print(f"  gen {record.generation} lsn {record.lsn}: "
                  f"{len(record.payload)} char(s)")
    clean = not scan.exists or (scan.header_ok and not scan.damaged
                                and scan.torn_reason is None)
    return 0 if clean else 1


def _cmd_scrub(args):
    from repro.storage.scrub import scrub_index

    # Read-only also for --repair: replay would read the corrupt pages,
    # and repair keeps each shard's log for the next load to replay.
    index, kind = _load_serving_index(args.index, wal_fsync=None)
    try:
        if args.repair and kind == "shard":
            index.enable_breakers()
        report = scrub_index(index, pages_per_second=args.rate,
                             repair=args.repair)
    finally:
        if hasattr(index, "close"):
            index.close()
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        corrupt_pages = sum(len(c["pages"]) for c in report["corrupt"])
        status = "CORRUPT" if corrupt_pages else "clean"
        print(f"{args.index}: {status} "
              f"({report['pages_checked']} page(s) checked, "
              f"{kind} layer)")
        for entry in report["corrupt"]:
            where = ("" if entry["shard"] is None
                     else f"shard {entry['shard']} ")
            print(f"  {where}corrupt pages: {entry['pages']}")
        for shard_id in report["repaired_shards"]:
            print(f"  shard {shard_id}: repaired online")
        for err in report["errors"]:
            print(f"  error: {err}")
    unrepaired = [c for c in report["corrupt"]
                  if c["shard"] not in report["repaired_shards"]]
    return 1 if unrepaired or report["errors"] else 0


def _cmd_fsck(args):
    from repro.storage.fsck import fsck

    report = fsck(args.index, page_size=args.page_size)
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        status = "clean" if report["ok"] else "CORRUPT"
        print(f"{args.index}: {status} "
              f"(format v{report['format']}, "
              f"generation {report['active_generation']}, "
              f"{report['pages_checked']} page(s) checked)")
        for entry in report["slots"]:
            detail = (f"generation {entry['generation']}"
                      if entry["status"] == "valid"
                      else entry.get("error", "?"))
            print(f"  slot {entry['slot']}: {entry['status']} ({detail})")
        for bad in report["corrupt_pages"]:
            print(f"  corrupt page {bad['page']}: {bad['error']}")
        for err in report["errors"]:
            print(f"  error: {err}")
        for warning in report["warnings"]:
            print(f"  warning: {warning}")
    return 0 if report["ok"] else 1


def build_parser():
    """Construct the argparse parser for the `repro` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPINE string index (ICDE 2004 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="materialize a pseudo-genome")
    p.add_argument("name", help="corpus name (ECO, CEL, HC21, ...)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scale", type=int, default=17_000,
                   help="chars per paper-Mbp (default 17000)")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("build", help="index a FASTA file")
    p.add_argument("fasta")
    p.add_argument("-o", "--output", required=True,
                   help="index file to write")
    p.add_argument("--generalized", action="store_true",
                   help="index every record into one collection")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("search", help="find a pattern")
    p.add_argument("index")
    p.add_argument("pattern")
    p.add_argument("--all", action="store_true",
                   help="report every occurrence")
    p.add_argument("--generalized", action="store_true",
                   help="the index is a multi-record collection")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write the query's trace span(s) as JSONL")
    p.add_argument("--trace-sample", type=int, default=1,
                   help="trace every Nth query (default: every)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "explain",
        help="step-by-step account of a pattern's traversal "
             "(PT accept/reject decisions, extrib chains)")
    p.add_argument("pattern")
    p.add_argument("--index", help="saved index file")
    p.add_argument("--text", metavar="STRING",
                   help="index this literal string in memory instead")
    p.add_argument("--json", action="store_true",
                   help="emit the structured account as JSON")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "batch",
        help="answer a patterns file with one shared backbone scan")
    p.add_argument("index")
    p.add_argument("--patterns-file", required=True, metavar="FILE",
                   help="query patterns, one per line (# comments ok)")
    p.add_argument("--threads", type=int, default=1,
                   help="traversal-phase worker threads (default 1)")
    p.add_argument("--json", action="store_true",
                   help="emit structured results as JSON")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write the batch's trace span(s) as JSONL")
    p.add_argument("--trace-sample", type=int, default=1,
                   help="trace every Nth span (default: every)")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("match", help="maximal matches of a query FASTA")
    p.add_argument("index")
    p.add_argument("query", help="query FASTA file")
    p.add_argument("--min-length", type=int, default=20)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("approx", help="approximate (k-error) search")
    p.add_argument("index")
    p.add_argument("pattern")
    p.add_argument("-k", "--max-errors", type=int, default=1)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("repeats", help="repeat analysis of an index")
    p.add_argument("index")
    p.add_argument("--thresholds", type=int, nargs="*",
                   default=[10, 20, 50])
    p.set_defaults(func=_cmd_repeats)

    p = sub.add_parser("dot", help="emit Graphviz DOT (small indexes)")
    p.add_argument("index")
    p.add_argument("--text", action="store_true",
                   help="ASCII listing instead of DOT")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("stats", help="index statistics")
    p.add_argument("index")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "profile",
        help="instrumented build/search/disk run; emits a JSON report")
    p.add_argument("fasta")
    p.add_argument("-o", "--output",
                   help="write the JSON report here (default: stdout)")
    p.add_argument("--queries", type=int, default=50,
                   help="random point queries per layer (default 50)")
    p.add_argument("--pattern-length", type=int, default=12)
    p.add_argument("--disk-chars", type=int, default=20_000,
                   help="cap on characters fed to the page-resident "
                        "index (default 20000)")
    p.add_argument("--buffer-pages", type=int, default=32,
                   help="disk buffer pool capacity (default 32)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patterns-file", metavar="FILE",
                   help="profile these query patterns (one per line) "
                        "instead of synthetic samples")
    p.add_argument("--trace-out", metavar="FILE",
                   help="write sampled query spans as JSONL and add a "
                        "trace summary to the report")
    p.add_argument("--trace-sample", type=int, default=1,
                   help="trace every Nth query (default: every)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "serve",
        help="serve a saved index with the live stats endpoint "
             "(/metrics, /healthz, /stats)")
    p.add_argument("index",
                   help="saved index: flat file, disk index file, or "
                        "sharded index directory (auto-detected)")
    p.add_argument("--stats-port", type=int, default=0,
                   help="stats endpoint port (default 0 = ephemeral; "
                        "the bound port is printed)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--threads", type=int, default=4,
                   help="query service worker threads (default 4)")
    p.add_argument("--load", type=int, default=0, metavar="N",
                   help="self-generate query load, N patterns per "
                        "batch (default 0 = idle serving)")
    p.add_argument("--patterns-file", metavar="FILE",
                   help="cycle these patterns as the load instead of "
                        "random substrings")
    p.add_argument("--pattern-length", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slow-threshold-ms", type=float, metavar="MS",
                   help="enable the slow-query log at this threshold")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="flush registry snapshots here as JSONL")
    p.add_argument("--flush-interval", type=float, default=5.0,
                   help="seconds between metrics flushes (default 5)")
    p.add_argument("--duration", type=float, metavar="SECONDS",
                   help="exit after this long (default: run until "
                        "interrupted)")
    p.add_argument("--deadline-ms", type=float, metavar="MS",
                   help="per-query wall-clock budget; expiry raises a "
                        "structured DeadlineExceededError (default: "
                        "unbounded)")
    p.add_argument("--max-concurrent", type=int, metavar="N",
                   help="admission control: queries running at once "
                        "(default: no admission gate)")
    p.add_argument("--max-queue", type=int, metavar="N",
                   help="admission control: queries allowed to wait; "
                        "beyond this arrivals are shed with "
                        "OverloadedError")
    p.add_argument("--degraded", action="store_true",
                   help="sharded index: answer partially (with "
                        "failed-shard metadata) instead of failing "
                        "the whole fan-out")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   metavar="N",
                   help="sharded index: consecutive failures opening "
                        "a shard's circuit breaker (default 5; 0 "
                        "disables breakers)")
    p.add_argument("--breaker-reset", type=float, default=1.0,
                   metavar="SECONDS",
                   help="seconds an open breaker waits before the "
                        "half-open probe (default 1)")
    p.add_argument("--inject-fault", metavar="SITE:MODE[:NTH[:COUNT"
                   "[:DELAY]]]",
                   help="chaos: arm a storage failpoint for the whole "
                        "run (e.g. pager.read:oserror:1:3 or "
                        "pager.read:stall:1:10:0.05)")
    p.add_argument("--slowlog-out", metavar="FILE",
                   help="write the slow-query log snapshot as JSON on "
                        "exit")
    p.add_argument("--wal-fsync", default="always",
                   choices=["always", "interval", "off", "none"],
                   help="disk layer: WAL fsync policy for extends "
                        "(default always; none disables the WAL)")
    p.add_argument("--extend-load", type=int, default=0, metavar="N",
                   help="append N random characters per loop "
                        "iteration, exercising the extend/WAL write "
                        "path under load (default 0)")
    p.add_argument("--scrub-interval", type=float, metavar="SECONDS",
                   help="run the background page scrubber this often "
                        "(default: no scrubbing)")
    p.add_argument("--scrub-rate", type=float, metavar="PAGES_PER_SEC",
                   help="scrubber I/O throttle (default unthrottled)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "shard",
        help="sharded index operations (build/query/stats)")
    shard_sub = p.add_subparsers(dest="shard_command", required=True)

    sp = shard_sub.add_parser(
        "build", help="partition a FASTA file into parallel shards")
    sp.add_argument("fasta")
    sp.add_argument("output", help="output directory")
    sp.add_argument("--shards", type=int, default=4)
    sp.add_argument("--workers", type=int, default=1,
                    help="construction worker processes")
    sp.add_argument("--max-pattern-len", type=int, default=64,
                    help="longest answerable pattern (fixes the "
                         "inter-shard overlap)")
    sp.add_argument("--layer", choices=("memory", "disk"),
                    default="memory")
    sp.add_argument("--split-threshold", type=int, default=None,
                    help="seal the tail shard when its owned span "
                         "reaches this many characters")
    sp.set_defaults(func=_cmd_shard_build)

    sp = shard_sub.add_parser(
        "query", help="query a saved sharded index")
    sp.add_argument("index", help="sharded index directory")
    sp.add_argument("patterns", nargs="+")
    sp.add_argument("--count", action="store_true",
                    help="print only the occurrence count")
    sp.add_argument("--layer", default=None,
                    help="override the traversal layer (e.g. load a "
                         "memory layout as 'packed')")
    sp.set_defaults(func=_cmd_shard_query)

    sp = shard_sub.add_parser(
        "stats", help="describe a saved sharded index")
    sp.add_argument("index", help="sharded index directory")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_shard_stats)

    p = sub.add_parser("verify", help="check index invariants")
    p.add_argument("index")
    p.add_argument("--deep", action="store_true",
                   help="exhaustive oracle checks (small indexes)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the traversal layers against "
             "independent oracles (seeded, bounded, minimizing)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=60.0,
                   metavar="SECONDS",
                   help="wall-clock time budget (default 60)")
    p.add_argument("--layers", default="memory,packed,disk,shard",
                   help="comma-separated layer matrix (default: all)")
    p.add_argument("--cases", type=int, default=None,
                   help="stop after this many scenarios (default: "
                        "budget-bound only)")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write replayable JSON repro files here on "
                        "divergence")
    p.add_argument("--replay", metavar="FILE",
                   help="re-execute a repro file instead of fuzzing "
                        "(exit 1 iff it still reproduces)")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip delta-debugging minimization")
    p.add_argument("--max-text", type=int, default=None,
                   help="cap generated text length")
    p.add_argument("--inject", metavar="LAYER:OP:MARKER",
                   help="testing aid: inject a synthetic wrong answer "
                        "into one layer to exercise the minimize/"
                        "replay pipeline")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "fsck",
        help="offline integrity scan of a disk index file "
             "(metadata slots, generation chain, page checksums)")
    p.add_argument("index", help="disk index file (DiskSpineIndex)")
    p.add_argument("--page-size", type=int, default=4096,
                   help="page size the file was created with "
                        "(default 4096)")
    p.add_argument("--json", action="store_true",
                   help="emit the full machine-readable report")
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser(
        "wal",
        help="inspect the write-ahead log of a disk index "
             "(records, last LSN, torn-tail diagnosis)")
    p.add_argument("index",
                   help="disk index file (or its .wal sidecar)")
    p.add_argument("--tail", type=int, default=0, metavar="N",
                   help="also list the last N records")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable scan")
    p.set_defaults(func=_cmd_wal)

    p = sub.add_parser(
        "scrub",
        help="one-shot page verification sweep of a disk index file "
             "or sharded index directory")
    p.add_argument("index",
                   help="disk index file or sharded index directory")
    p.add_argument("--repair", action="store_true",
                   help="sharded index: quarantine and rebuild a "
                        "corrupt shard online from its write-ahead log")
    p.add_argument("--rate", type=float, metavar="PAGES_PER_SEC",
                   help="I/O throttle (default unthrottled)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")
    p.set_defaults(func=_cmd_scrub)
    return parser


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output consumer (e.g. `| head`) went away; exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except OSError as exc:
        # Missing/unreadable input files and the like: a one-line
        # structured error, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
