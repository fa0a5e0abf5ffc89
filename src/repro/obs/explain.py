"""``repro explain``: why did this pattern match (or not)?

The paper's false-positive-exclusion machinery (Section 2.1/4) is all
numeric: a rib admits a path only while ``pathlength <= PT``, a failed
rib falls through to the first extrib-chain element with ``PT >=
pathlength``, and a pattern is a substring exactly when a valid path
exists. When a query misbehaves, the question is always *which*
comparison fired. This module replays one pattern through an index —
any of the three traversal layers
(:class:`~repro.core.index.SpineIndex`,
:class:`~repro.core.packed.PackedSpineIndex`,
:class:`~repro.disk.spine_disk.DiskSpineIndex`), one
:func:`repro.core.search.step` per character — under a private,
non-coalescing tracer and renders a step-by-step account with the PT
vs. pathlength arithmetic spelled out at every decision point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.search import step
from repro.obs.trace import Tracer, set_tracer

__all__ = ["ExplainStep", "Explanation", "explain_pattern"]


@dataclass
class ExplainStep:
    """One consumed pattern character and the edge decision it took.

    ``outcome`` is one of ``"vertebra"``, ``"rib"`` (PT accepted),
    ``"extrib"`` (PT rejected, chain element accepted) or
    ``"rejected"``; ``events`` holds the raw trace events of the step
    (including any ``page-fetch`` the step caused on a disk index).
    """

    position: int          # 1-based index into the pattern
    char: str
    node: int              # node the step started from
    pathlength: int
    outcome: str
    dest: int = None
    events: list = field(default_factory=list)


@dataclass
class Explanation:
    """Full account of one pattern's traversal.

    ``matched`` tells whether a valid path exists (== the pattern is a
    substring, by the paper's correctness theorem); ``steps`` narrate
    the walk; ``span`` is the finished trace span backing it all.
    """

    pattern: str
    matched: bool
    steps: list
    end_node: int = None
    first_occurrence: int = None
    occurrences: list = None
    span: object = None

    def to_dict(self):
        """JSON-ready rendering (span events included)."""
        return {
            "pattern": self.pattern,
            "matched": self.matched,
            "end_node": self.end_node,
            "first_occurrence": self.first_occurrence,
            "occurrences": self.occurrences,
            "steps": [
                {
                    "position": s.position,
                    "char": s.char,
                    "node": s.node,
                    "pathlength": s.pathlength,
                    "outcome": s.outcome,
                    "dest": s.dest,
                    "events": s.events,
                }
                for s in self.steps
            ],
            "trace": self.span.to_dict() if self.span else None,
        }

    @property
    def text(self):
        """The human-readable multi-line rendering."""
        return "\n".join(self.lines())

    def lines(self):
        """Render the account, one line per decision."""
        out = [f"explain {self.pattern!r} ({len(self.pattern)} "
               f"char(s))"]
        for s in self.steps:
            out.extend(_render_step(s))
        if self.matched:
            tail = (f"verdict: {self.pattern!r} IS a substring; "
                    f"valid path ends at node {self.end_node}")
            if self.first_occurrence is not None:
                tail += (f", first occurrence at position "
                         f"{self.first_occurrence}")
            out.append(tail)
            if self.occurrences is not None:
                shown = ",".join(map(str, self.occurrences[:20]))
                suffix = ",..." if len(self.occurrences) > 20 else ""
                out.append(f"occurrences ({len(self.occurrences)}): "
                           f"{shown}{suffix}")
        else:
            last = self.steps[-1]
            out.append(
                f"verdict: {self.pattern!r} is NOT a substring; "
                f"rejected at step {last.position} "
                f"({_reject_reason(last)})")
        return out


def _render_step(s):
    """Lines for one step (the PT arithmetic spelled out)."""
    head = (f"  step {s.position} {s.char!r} @node {s.node} "
            f"(pathlength {s.pathlength}): ")
    lines = []
    fetches = [e for e in s.events if e["type"] == "page-fetch"]
    if s.outcome == "vertebra":
        lines.append(head + f"vertebra -> node {s.dest}")
    elif s.outcome == "rib":
        rib = _first(s.events, "enter-rib")
        lines.append(
            head + f"rib (PT={rib['pt']}): pathlength "
            f"{s.pathlength} <= PT -> ACCEPT -> node {s.dest}")
    elif s.outcome == "extrib":
        rib = _first(s.events, "enter-rib")
        lines.append(
            head + f"rib (PT={rib['pt']}): pathlength "
            f"{s.pathlength} > PT -> REJECT, extrib chain:")
        lines.extend(_chain_lines(s))
    else:  # rejected
        rib = _first(s.events, "enter-rib")
        if rib is None:
            lines.append(head + "no edge for this character "
                         "-> NO VALID PATH")
        else:
            lines.append(
                head + f"rib (PT={rib['pt']}): pathlength "
                f"{s.pathlength} > PT -> REJECT")
            chain = _chain_lines(s)
            if chain:
                lines.extend(chain)
                lines.append("      chain exhausted -> NO VALID PATH")
            else:
                lines.append(
                    "      no extrib chain -> NO VALID PATH")
    if fetches:
        pages = ",".join(str(e["page"]) for e in fetches)
        lines.append(f"      [fetched page(s) {pages}]")
    return lines


def _chain_lines(s):
    lines = []
    for e in s.events:
        if e["type"] != "extrib-fallthrough":
            continue
        verdict = ("ACCEPT -> node " + str(e["dest"])
                   if e["taken"] else "skip")
        lines.append(
            f"      extrib (PT={e['pt']}, -> node {e['dest']}): "
            f"PT {'>=' if e['taken'] else '<'} pathlength "
            f"{e['pathlength']} -> {verdict}")
    return lines


def _reject_reason(step):
    rib = _first(step.events, "enter-rib")
    if rib is None:
        return (f"no edge at node {step.node} for {step.char!r}")
    chain = [e for e in step.events
             if e["type"] == "extrib-fallthrough"]
    if chain:
        best = max(e["pt"] for e in chain)
        return (f"rib at node {step.node}: PT {rib['pt']} < "
                f"pathlength {step.pathlength}; deepest extrib "
                f"PT {best} also < {step.pathlength}")
    return (f"rib at node {step.node}: PT {rib['pt']} < "
            f"pathlength {step.pathlength}, no extrib chain")


def _first(events, etype):
    for e in events:
        if e["type"] == etype:
            return e
    return None


def _classify(events, dest):
    """Outcome label of one step from its event slice."""
    if dest is None:
        return "rejected"
    for e in events:
        if e["type"] == "extrib-fallthrough" and e.get("taken"):
            return "extrib"
        if e["type"] == "pt-accept":
            return "rib"
    return "vertebra"


def explain_pattern(index, pattern, with_occurrences=True):
    """Replay ``pattern`` through ``index`` and return an
    :class:`Explanation`.

    The replay installs a private tracer as the process-global one for
    its duration, so deep layers (the disk index's buffer pool) also
    attribute their events to the explanation — then restores whatever
    tracer was active before.
    """
    tracer = Tracer(enabled=True, sample_every=1,
                    coalesce_vertebras=False)
    previous = set_tracer(tracer)
    try:
        span = tracer.begin("explain", pattern=pattern)
        codes = index.alphabet.encode(pattern)
        node = 0
        steps = []
        matched = True
        with index.read_locked():
            for i, code in enumerate(codes):
                before = len(span.events)
                nxt = step(index, node, i, code, span)
                slice_ = span.events[before:]
                steps.append(ExplainStep(
                    position=i + 1,
                    char=pattern[i],
                    node=node,
                    pathlength=i,
                    outcome=_classify(slice_, nxt),
                    dest=nxt,
                    events=slice_,
                ))
                if nxt is None:
                    matched = False
                    break
                node = nxt
        tracer.finish(span, status="hit" if matched else "miss")
    finally:
        set_tracer(previous)
    explanation = Explanation(pattern=pattern, matched=matched,
                              steps=steps, span=span)
    if matched:
        explanation.end_node = node
        explanation.first_occurrence = node - len(codes)
        if with_occurrences and pattern:
            explanation.occurrences = list(index.find_all(pattern))
    return explanation
