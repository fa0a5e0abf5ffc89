"""Multi-process shard construction.

SPINE construction is a strictly sequential left-to-right APPEND loop
(paper Figure 4), so a single index cannot be built on more than one
core. Shards can: each worker process builds one shard's segment
independently, then hands the finished structure back to the parent.

Two handoff channels, chosen by layer:

memory / packed
    The worker builds an in-memory :class:`~repro.core.SpineIndex` and
    serializes it with :func:`repro.core.serialize.save_index` to a
    scratch file; the parent deserializes it. The SPNE serializer
    bulk-packs its sparse sections precisely so this handoff does not
    eat the multicore speedup. Packed shards cross as memory shards:
    :meth:`~repro.shard.ShardedSpineIndex.build` freezes them in the
    parent once the pool returns, with the array-pass
    :meth:`~repro.core.packed.PackedSpineIndex.from_index` (a few
    milliseconds per ~50k-char shard).

disk
    The worker builds a :class:`~repro.disk.DiskSpineIndex` directly at
    the shard's final page-file path, checkpoints, and closes; the
    parent simply reopens the file. There is no second copy — the page
    file *is* the shard. A disk build without a real path cannot cross
    the process boundary (the pages would die with the worker), so
    ``workers > 1`` requires one.

Everything a worker needs travels in a picklable :class:`ShardBuildSpec`
(the segment text, the **global** alphabet — a shard's segment may lack
symbols the full text has — and the layer/paths). The worker function is
a module top-level so it pickles under every multiprocessing start
method.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.exceptions import ConstructionError
from repro.obs import get_registry

__all__ = ["ShardBuildSpec", "build_shard_indexes"]


class ShardBuildSpec:
    """Everything one worker needs to build one shard (picklable)."""

    __slots__ = ("shard_id", "text", "alphabet", "layer", "out_path",
                 "disk_options")

    def __init__(self, shard_id, text, alphabet, layer, out_path,
                 disk_options=None):
        self.shard_id = shard_id
        self.text = text
        self.alphabet = alphabet
        #: ``"memory"`` | ``"packed"`` | ``"disk"``. Packed shards are
        #: built and handed back as memory shards; the parent freezes
        #: them after the pool returns (an array pass per shard).
        self.layer = layer
        #: Scratch ``.spne`` path (memory/packed) or the shard's final
        #: page-file path (disk).
        self.out_path = out_path
        self.disk_options = disk_options or {}


def _build_one(spec):
    """Build one shard in the current process; returns ``spec.out_path``.

    Top-level so :mod:`multiprocessing` can pickle it under the spawn
    start method as well as fork.
    """
    if spec.layer == "disk":
        from repro.disk import DiskSpineIndex

        index = DiskSpineIndex(alphabet=spec.alphabet,
                               path=spec.out_path, **spec.disk_options)
        try:
            index.extend(spec.text)
            index.checkpoint()
        finally:
            index.close()
    else:
        from repro.core.index import SpineIndex
        from repro.core.serialize import save_index

        index = SpineIndex(spec.text, alphabet=spec.alphabet)
        save_index(index, spec.out_path)
    return spec.out_path


def _build_inline(spec):
    """Single-process path: build the shard object directly, skipping
    the serialize/deserialize round trip entirely."""
    if spec.layer == "disk":
        from repro.disk import DiskSpineIndex

        index = DiskSpineIndex(alphabet=spec.alphabet,
                               path=spec.out_path, **spec.disk_options)
        index.extend(spec.text)
        if spec.out_path is not None:
            index.checkpoint()
        return index
    from repro.core.index import SpineIndex

    return SpineIndex(spec.text, alphabet=spec.alphabet)


def _load_built(spec):
    """Parent-side handoff: materialize the shard a worker produced."""
    if spec.layer == "disk":
        from repro.disk import DiskSpineIndex

        return DiskSpineIndex.open(spec.out_path,
                                   alphabet=spec.alphabet,
                                   **spec.disk_options)
    from repro.core.serialize import load_index

    index = load_index(spec.out_path)
    os.remove(spec.out_path)
    return index


def build_shard_indexes(specs, workers=1):
    """Build every spec's shard, ``workers`` at a time.

    Returns the shard indexes aligned with ``specs`` order (memory
    indexes for the memory/packed layers, open ``DiskSpineIndex``
    objects for the disk layer). ``workers == 1`` builds inline in this
    process with no serialization; ``workers > 1`` fans the specs out
    over a :class:`~concurrent.futures.ProcessPoolExecutor`.
    """
    if workers < 1:
        raise ConstructionError("workers must be >= 1")
    specs = list(specs)
    if workers > 1:
        for spec in specs:
            if spec.out_path is None:
                raise ConstructionError(
                    "parallel shard builds need real paths: an "
                    "in-memory disk shard built in a worker process "
                    "would die with the worker")
    registry = get_registry()
    metrics = registry if registry.enabled else None
    if metrics is not None:
        started = time.perf_counter()
    if workers == 1 or len(specs) <= 1:
        indexes = [_build_inline(spec) for spec in specs]
    else:
        # The parent's deserialization is the serial fraction of this
        # fan-out, so it is pipelined: each shard is loaded as soon as
        # its worker finishes, overlapping with workers still building
        # later shards. With more shards than workers (the default
        # build shape) most of the load cost hides behind the builds.
        indexes = [None] * len(specs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {pool.submit(_build_one, spec): i
                       for i, spec in enumerate(specs)}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    i = pending.pop(future)
                    future.result()  # surface worker exceptions
                    indexes[i] = _load_built(specs[i])
    if metrics is not None:
        metrics.counter("shard.build.shards").inc(len(specs))
        metrics.counter("shard.build.workers").inc(workers)
        metrics.timer("shard.build.seconds").observe(
            time.perf_counter() - started)
    return indexes
