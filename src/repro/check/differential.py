"""The differential fuzz engine.

``run_case`` executes one :class:`Scenario` end to end: it builds every
requested layer through its operation sequence, answers every pattern
with every operation on every layer, diffs the outcomes against the
naive-scan oracle (cross-checked by the suffix-array oracle), runs the
batched query path, and finishes with the layer-generic structural
invariant engine (:func:`repro.core.verify.verify_index`). Every
disagreement becomes a :class:`Divergence`.

``run_fuzz`` is the driver: a seeded scenario stream under a time
budget; any divergence is shrunk by the delta-debugging minimizer and
written as a replayable JSON repro file. ``replay_file`` re-executes a
repro file deterministically.

When the global metrics registry is enabled (:mod:`repro.obs`), the
engine publishes ``check.cases``, ``check.queries``,
``check.divergences`` and ``check.invariant_violations`` counters plus
a ``check.case.seconds`` timer, and each fuzz case runs under a
``check.case`` trace span when tracing is on.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, asdict

from repro.check.generators import Scenario, generate_scenario
from repro.check.harness import build_layers, expected_for_layer
from repro.check.oracles import MATCHING_OPS, OPS, Oracle
from repro.exceptions import ReproError
from repro.obs import query_scope

#: Repro files claiming a different format are refused on replay.
REPRO_FORMAT = 1


@dataclass
class Divergence:
    """One observed disagreement (or invariant violation)."""

    kind: str          # "query" | "batch" | "invariant" | "oracle"
    layer: str
    op: str
    pattern: str = ""
    expected: object = None
    got: object = None
    detail: str = ""

    def to_dict(self):
        return asdict(self)

    def matches(self, other):
        """Same failure class? (what the minimizer preserves)"""
        return (self.kind, self.layer, self.op) == \
            (other.kind, other.layer, other.op)

    def describe(self):
        head = f"[{self.kind}] layer={self.layer} op={self.op}"
        if self.kind == "invariant":
            return f"{head}: {self.detail}"
        return (f"{head} pattern={self.pattern!r}: "
                f"expected {self.expected}, got {self.got}")


def run_case(scenario, workdir=None):
    """Execute one scenario; returns the list of divergences."""
    with query_scope("check.case", timer="check.case.seconds",
                     layers=len(scenario.layers),
                     text_chars=len(scenario.text),
                     patterns=len(scenario.patterns)) as scope:
        owns_workdir = workdir is None
        if owns_workdir:
            workdir = tempfile.mkdtemp(prefix="repro-fuzz-")
        try:
            divergences = _run_case(scenario, workdir, scope)
        finally:
            if owns_workdir:
                shutil.rmtree(workdir, ignore_errors=True)
        if scope.metrics is not None:
            scope.metrics.counter("check.cases").inc()
            scope.metrics.counter("check.divergences").inc(
                len(divergences))
        scope.close(divergences=len(divergences))
    return divergences


def _run_case(scenario, workdir, scope):
    metrics = scope.metrics
    divergences = []
    oracle = Oracle(scenario.text,
                    symbols=scenario.alphabet,
                    case_insensitive=scenario.case_insensitive)
    queries = 0

    # Oracle self-check: the suffix array must agree with the naive
    # scan before it is allowed to vouch for anything.
    for pattern in scenario.patterns:
        folded = oracle.fold(pattern)
        if not folded:
            continue
        naive = oracle.naive_starts(folded)
        try:
            sa = sorted(oracle.suffix_array_starts(folded))
        except ReproError as exc:
            sa = f"error:{type(exc).__name__}"
        if sa != naive:
            divergences.append(Divergence(
                kind="oracle", layer="suffixarray", op="find_all",
                pattern=pattern, expected=naive, got=sa))

    # The streaming verbs also get one long query — every encodable
    # pattern back to back, then all of that reversed — so matches
    # break and fall back through links and extrib chains mid-stream.
    stream = "".join(p for p in scenario.patterns
                     if oracle.fold(p) is not None)
    stream += stream[::-1]
    queries_by_op = [(op, scenario.patterns) for op in OPS]
    queries_by_op += [(op, [stream]) for op in MATCHING_OPS]
    layers = build_layers(scenario, workdir)
    try:
        for layer in layers:
            for op, patterns in queries_by_op:
                if op in MATCHING_OPS and layer.name == "shard":
                    continue  # the sharded layer has no streaming verbs
                for pattern in patterns:
                    expected = expected_for_layer(layer, oracle, op,
                                                  pattern)
                    got = layer.query(op, pattern)
                    queries += 1
                    if got != expected:
                        divergences.append(Divergence(
                            kind="query", layer=layer.name, op=op,
                            pattern=pattern, expected=expected,
                            got=got))

            # Batched path: every pattern the batch engine accepts.
            batchable = [p for p in scenario.patterns if p != ""
                         and (layer.pattern_cap is None
                              or len(p) <= layer.pattern_cap)]
            if batchable:
                got = layer.batch(batchable,
                                  threads=scenario.batch_threads)
                queries += len(batchable)
                expected = ("ok", [list(oracle.expected_batch(p))
                                   for p in batchable])
                normalized = got
                if got[0] == "ok":
                    normalized = ("ok", [list(entry)
                                         for entry in got[1]])
                if normalized != expected:
                    divergences.append(_batch_divergence(
                        layer, batchable, expected, normalized))

            # Structural invariants, layer-generic.
            violation = layer.verify(deep=scenario.deep_verify)
            if violation is not None:
                if metrics is not None:
                    metrics.counter(
                        "check.invariant_violations").inc()
                divergences.append(Divergence(
                    kind="invariant", layer=layer.name,
                    op=violation.invariant or "verify",
                    detail=str(violation)))
    finally:
        for layer in layers:
            try:
                layer.close()
            except Exception:
                pass
    if metrics is not None:
        metrics.counter("check.queries").inc(queries)
    return divergences


def _batch_divergence(layer, patterns, expected, got):
    """Narrow a whole-batch mismatch to the first bad pattern."""
    if got[0] == "ok" and expected[0] == "ok":
        for pattern, want, have in zip(patterns, expected[1], got[1]):
            if want != have:
                return Divergence(kind="batch", layer=layer.name,
                                  op="batch_find_all", pattern=pattern,
                                  expected=want, got=have)
    return Divergence(kind="batch", layer=layer.name,
                      op="batch_find_all",
                      pattern=patterns[0] if patterns else "",
                      expected=expected, got=got)


# ----------------------------------------------------------------------
# repro files
# ----------------------------------------------------------------------

def save_repro(path, scenario, divergences, seed=None, case_index=None,
               minimized=False):
    """Write a replayable JSON repro file; returns ``path``."""
    payload = {
        "format": REPRO_FORMAT,
        "tool": "repro fuzz",
        "seed": seed,
        "case_index": case_index,
        "minimized": minimized,
        "scenario": scenario.to_dict(),
        "divergences": [d.to_dict() for d in divergences],
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_repro(path):
    """Parse a repro file into ``(scenario, recorded_divergences)``."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise ReproError(f"{path}: not a repro file ({exc})") \
                from None
    if not isinstance(payload, dict) \
            or payload.get("format") != REPRO_FORMAT \
            or "scenario" not in payload:
        raise ReproError(f"{path}: not a 'repro fuzz' repro file")
    scenario = Scenario.from_dict(payload["scenario"])
    recorded = [Divergence(**d) for d in payload.get("divergences", [])]
    return scenario, recorded


def replay_file(path):
    """Re-execute a repro file. Returns a report dict with the fresh
    divergences (empty = the bug no longer reproduces)."""
    scenario, recorded = load_repro(path)
    divergences = run_case(scenario)
    return {
        "path": path,
        "recorded": [d.to_dict() for d in recorded],
        "divergences": [d.to_dict() for d in divergences],
        "reproduced": bool(divergences),
    }


# ----------------------------------------------------------------------
# the fuzz driver
# ----------------------------------------------------------------------

@dataclass
class FuzzReport:
    seed: int = 0
    layers: list = field(default_factory=list)
    cases: int = 0
    queries_hint: int = 0
    elapsed: float = 0.0
    divergences: list = field(default_factory=list)  # dicts
    repro_files: list = field(default_factory=list)
    minimized: bool = True

    @property
    def ok(self):
        return not self.divergences

    def to_dict(self):
        data = asdict(self)
        data["ok"] = self.ok
        return data


def run_fuzz(seed=0, budget=60.0, layers=None, max_cases=None,
             out_dir=None, minimize=True, max_text=None,
             injection=None, max_failures=5, log=None):
    """Seeded differential fuzzing under a time budget.

    Draws scenarios from ``random.Random(seed)`` until ``budget``
    seconds elapse (or ``max_cases`` scenarios ran), differentially
    checks each one, and on divergence shrinks the case
    (:func:`repro.check.minimize.minimize_scenario`) and — when
    ``out_dir`` is given — writes a replayable JSON repro file. Stops
    early after ``max_failures`` distinct failing cases.
    """
    from repro.check.minimize import minimize_scenario

    rng = random.Random(seed)
    layers = list(layers) if layers else ["memory", "packed", "disk",
                                          "shard"]
    report = FuzzReport(seed=seed, layers=layers, minimized=minimize)
    deadline = time.monotonic() + budget
    started = time.monotonic()
    failures = 0
    while time.monotonic() < deadline:
        if max_cases is not None and report.cases >= max_cases:
            break
        case_index = report.cases
        scenario = generate_scenario(rng, layers=layers,
                                     max_text=max_text,
                                     injection=injection)
        divergences = run_case(scenario)
        report.cases += 1
        report.queries_hint += len(scenario.patterns) * len(OPS) \
            * len(layers)
        if not divergences:
            continue
        if log is not None:
            log(f"case {case_index}: {divergences[0].describe()}")
        if minimize:
            scenario, divergences = minimize_scenario(
                scenario, divergences[0])
        for d in divergences:
            entry = d.to_dict()
            entry["case_index"] = case_index
            report.divergences.append(entry)
        if out_dir is not None:
            path = os.path.join(
                out_dir, f"repro-seed{seed}-case{case_index}.json")
            save_repro(path, scenario, divergences, seed=seed,
                       case_index=case_index, minimized=minimize)
            report.repro_files.append(path)
        failures += 1
        if failures >= max_failures:
            break
    report.elapsed = time.monotonic() - started
    return report
