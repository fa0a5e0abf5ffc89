"""Build every layer under test from a :class:`Scenario` and expose a
uniform, outcome-normalized query surface.

Each layer is driven through the *operation sequence* the scenario
describes — build from the first text segment, online ``extend`` for
the rest, optional checkpoint / close+reopen (disk), optional
serialize round trip (memory), optional tail splits (shard) — so the
differential engine exercises the mutation paths, not just a finished
index.

Outcomes are normalized to ``("ok", value)`` / ``("error",
ExceptionClassName)`` so expected errors (empty-pattern ``SearchError``,
the sharded pattern-length cap) diff like values instead of aborting
the run.

A scenario may carry an *injection*: a synthetic fault that corrupts
one layer's answers for patterns containing a marker substring. It
exists so the minimizer and the replay path can be tested end to end
against a known divergence (``repro fuzz --inject``); nothing else
sets it.
"""

from __future__ import annotations

import os

from repro.alphabet import Alphabet
from repro.exceptions import ReproError

from repro.check.oracles import OPS


def scenario_alphabet(scenario):
    return Alphabet(scenario.alphabet, name="fuzz",
                    case_insensitive=scenario.case_insensitive)


class LayerUnderTest:
    """One built layer plus its normalized query interface."""

    def __init__(self, name, index, pattern_cap=None, injection=None,
                 cleanup=None):
        self.name = name
        self.index = index
        #: Longest answerable pattern (sharded layer), else ``None``.
        self.pattern_cap = pattern_cap
        self._injection = injection if (
            injection and injection.get("layer") == name) else None
        self._cleanup = cleanup

    def close(self):
        close = getattr(self.index, "close", None)
        if close is not None:
            close()
        if self._cleanup is not None:
            self._cleanup()

    # -- queries -------------------------------------------------------

    def _inject(self, op, pattern, outcome):
        """Apply the synthetic fault: drop the first occurrence from a
        non-empty ``find_all`` answer (and dent ``count`` to match) for
        patterns containing the marker."""
        spec = self._injection
        if spec is None or outcome[0] != "ok":
            return outcome
        if spec.get("op", op) != op:
            return outcome
        if spec.get("marker", "") not in pattern:
            return outcome
        value = outcome[1]
        if op == "find_all" and value:
            return ("ok", value[1:])
        if op == "count" and value:
            return ("ok", value - 1)
        return outcome

    def query(self, op, pattern):
        """Normalized outcome of one query (``pattern`` is the whole
        query string of a streaming verb), asked through the layer's
        own verb."""
        try:
            value = getattr(self.index, op)(pattern)
            if op == "matching_statistics":
                value = value.lengths
            elif op == "maximal_matches":
                value = [[m.query_start, m.length, list(m.data_starts)]
                         for m in value[0]]
            elif op == "find_all":
                value = list(value)
        except ReproError as exc:
            return ("error", type(exc).__name__)
        return self._inject(op, pattern, ("ok", value))

    def batch(self, patterns, threads=1):
        """Normalized batched ``find_all``: a list of
        ``(status, starts)`` pairs, or one ``("error", name)``."""
        try:
            results = self.index.batch_find_all(patterns, threads=threads)
        except ReproError as exc:
            return ("error", type(exc).__name__)
        out = []
        for match in results:
            _, starts = self._inject("find_all", match.pattern,
                                     ("ok", list(match.starts)))
            status = match.status
            if status == "hit" and not starts:
                status = "miss"
            out.append((status, starts))
        return ("ok", out)

    def verify(self, deep=False):
        """Run the layer-generic invariant engine; ``None`` when clean,
        else the :class:`VerificationError`."""
        from repro.core.verify import verify_index
        from repro.exceptions import VerificationError

        try:
            verify_index(self.index, deep=deep)
        except VerificationError as exc:
            return exc
        return None


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def _build_memory(scenario, workdir):
    from repro.core.index import SpineIndex

    index = SpineIndex(alphabet=scenario_alphabet(scenario))
    for segment in scenario.segments():
        if segment:
            index.extend(segment)
    if scenario.save_load:
        from repro.core.serialize import load_index, save_index

        path = os.path.join(workdir, "memory.spine")
        save_index(index, path)
        index = load_index(path)
    return index


def _build_packed(scenario, workdir):
    from repro.core.index import SpineIndex
    from repro.core.packed import PackedSpineIndex

    reference = SpineIndex(alphabet=scenario_alphabet(scenario))
    reference.extend(scenario.text)
    return PackedSpineIndex.from_index(reference)


def _build_disk(scenario, workdir):
    from repro.disk.spine_disk import DiskSpineIndex

    alphabet = scenario_alphabet(scenario)
    persistent = (scenario.checkpoint or scenario.reopen
                  or getattr(scenario, "crash_reopen", False))
    path = (os.path.join(workdir, "disk.spine") if persistent else None)
    index = DiskSpineIndex(alphabet=alphabet, path=path,
                           page_size=scenario.page_size,
                           buffer_pages=scenario.buffer_pages)
    segments = scenario.segments()
    reopen_after = (len(segments) // 2 if scenario.reopen
                    and len(segments) > 1 else None)
    crash_after = (len(segments) // 2
                   if getattr(scenario, "crash_reopen", False)
                   and len(segments) > 1 else None)
    for i, segment in enumerate(segments):
        if segment:
            index.extend(segment)
        if scenario.checkpoint and path is not None:
            index.checkpoint()
        if crash_after is not None and i == 0 and index.generation == 0:
            # WAL replay needs a durable base checkpoint to land on.
            index.checkpoint()
        if crash_after is not None and i == crash_after:
            # Simulated kill -9 between extend and checkpoint: the
            # page file holds only the last checkpoint; reopening must
            # replay the WAL tail so this layer still agrees with the
            # others byte-for-byte.
            index.crash()
            index = DiskSpineIndex.open(
                path, alphabet=alphabet,
                page_size=scenario.page_size,
                buffer_pages=scenario.buffer_pages)
            crash_after = None
        if reopen_after is not None and i == reopen_after:
            # Crash-safe round trip in the middle of the stream; the
            # remaining segments extend the *reopened* index, so the
            # freshly-extended-unsaved state gets queried too.
            if not scenario.checkpoint:
                index.checkpoint()
            index.close()
            index = DiskSpineIndex.open(
                path, alphabet=alphabet,
                page_size=scenario.page_size,
                buffer_pages=scenario.buffer_pages)
            reopen_after = None
    if scenario.batch_threads > 1:
        index.enable_concurrent_reads()
    return index


def _build_shard(scenario, workdir):
    from repro.shard.index import ShardedSpineIndex

    segments = scenario.segments()
    disk_options = ({"buffer_pages": scenario.buffer_pages}
                    if scenario.shard_layer == "disk" else {})
    index = ShardedSpineIndex.build(
        segments[0], shards=scenario.shards,
        max_pattern_len=scenario.max_pattern_len,
        alphabet=scenario_alphabet(scenario),
        layer=scenario.shard_layer,
        split_threshold=scenario.split_threshold,
        **disk_options)
    for segment in segments[1:]:
        if segment:
            index.extend(segment)
    if scenario.batch_threads > 1:
        index.enable_concurrent_reads()
    return index


_BUILDERS = {
    "memory": _build_memory,
    "packed": _build_packed,
    "disk": _build_disk,
    "shard": _build_shard,
}


def build_layers(scenario, workdir):
    """Materialize every layer the scenario names, in order."""
    layers = []
    for name in scenario.layers:
        index = _BUILDERS[name](scenario, workdir)
        cap = (scenario.max_pattern_len if name == "shard" else None)
        layers.append(LayerUnderTest(name, index, pattern_cap=cap,
                                     injection=scenario.injection))
    return layers


def expected_for_layer(layer, oracle, op, pattern):
    """The oracle expectation adjusted for layer-specific contracts:
    the sharded layer rejects patterns beyond its cap with a
    ``SearchError`` for every operation except the empty pattern."""
    if layer.pattern_cap is not None and pattern != "" \
            and len(pattern) > layer.pattern_cap:
        return ("error", "SearchError")
    return oracle.expected(op, pattern)


__all__ = ["LayerUnderTest", "build_layers", "expected_for_layer",
           "scenario_alphabet", "OPS"]
