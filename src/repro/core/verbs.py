"""The query verbs of every traversal layer, written once.

:class:`~repro.core.index.SpineIndex`,
:class:`~repro.core.packed.PackedSpineIndex` and
:class:`~repro.disk.spine_disk.DiskSpineIndex` inherit their query
methods from :class:`LayerVerbs`; each method calls the engine
function it is named after (:mod:`repro.core.search`,
:mod:`repro.core.matching`, :mod:`repro.core.batch`) on the layer's
storage accessors. ``limit`` answers against the prefix of that length
(Section 2.7) and ``cancel`` takes a
:class:`~repro.resilience.CancellationToken`, with the engine's
semantics; :class:`~repro.shard.ShardedSpineIndex` answers the same
verbs with the same signatures.
"""

from __future__ import annotations

from repro.core import batch, matching, search

__all__ = ["LayerVerbs"]


class LayerVerbs:
    """Query methods shared by the traversal layers (see the module
    docstring); a layer supplies only the storage accessors."""

    __slots__ = ()

    def enable_concurrent_reads(self):
        """Make the read path safe for parallel query threads: a no-op
        unless the layer overrides it (the disk layer's buffer pool)."""
        return self

    def contains(self, pattern, limit=None, cancel=None):
        """True iff ``pattern`` is a substring of the indexed string."""
        return search.contains(self, pattern, limit, cancel)

    def find_first(self, pattern, limit=None, cancel=None):
        """0-indexed start of the first occurrence, or ``None``."""
        return search.find_first(self, pattern, limit, cancel)

    def find_all(self, pattern, limit=None, cancel=None):
        """Sorted 0-indexed starts of every occurrence."""
        return search.find_all(self, pattern, limit, cancel)

    def count(self, pattern, limit=None, cancel=None):
        """Number of (possibly overlapping) occurrences."""
        return search.count(self, pattern, limit, cancel)

    def matching_statistics(self, query):
        """End-aligned matching statistics of ``query``."""
        return matching.matching_statistics(self, query)

    def maximal_matches(self, query, min_length=1):
        """Right-maximal matches of ``query`` with all data positions,
        resolved by one deferred link scan (Section 4)."""
        return matching.maximal_matches(self, query, min_length)

    def batch_find_all(self, patterns, threads=1, limit=None,
                       executor=None, cancel=None):
        """Every pattern's occurrences with one shared link scan."""
        return batch.batch_find_all(self, patterns, threads, limit,
                                    executor, cancel)
