"""SPINE: the paper's horizontally-compacted trie index.

Public surface:

* :class:`repro.core.index.SpineIndex` — online construction plus the
  basic query operations (containment, first/all occurrences).
* :mod:`repro.core.search` — the query engine every layer answers
  through (containment, first/all occurrences, counts, each with an
  optional snapshot bound and cancellation), batched occurrence
  scanning, valid-path tracing.
* :mod:`repro.core.matching` — matching statistics and the paper's
  "all maximal matching substrings" operation (Section 4), with
  instrumented check counting for Table 6.
* :class:`repro.core.generalized.GeneralizedSpineIndex` — one index over
  several strings (Section 1.1).
* :mod:`repro.core.stats` — the structural statistics behind Tables 3-4
  and Figure 8.
* :mod:`repro.core.layout` / :mod:`repro.core.packed` — the Section 5
  space model and the optimized LT/RT physical layout.
* :mod:`repro.core.verify` — invariant checker.
"""

from repro.core.index import SpineIndex
from repro.core.generalized import GeneralizedSpineIndex
from repro.core.batch import BatchMatch, batch_find_all
from repro.core.search import (
    OccurrenceScanner,
    contains,
    count,
    find_all,
    find_first,
    is_valid_path,
    trace_path,
)
from repro.core.matching import (
    MatchingResult,
    MaximalMatch,
    matching_statistics,
    maximal_matches,
)
from repro.core.cursor import SearchCursor, StreamEvent, StreamMatcher
from repro.core.analysis import (
    RepeatHit,
    longest_common_substring,
    longest_repeated_substring,
    repeat_annotation,
    repeat_fraction,
)
from repro.core.serialize import load_index, save_index
from repro.core.stats import SpineStatistics, collect_statistics
from repro.core.verify import verify_index

__all__ = [
    "SpineIndex",
    "GeneralizedSpineIndex",
    "BatchMatch",
    "batch_find_all",
    "OccurrenceScanner",
    "contains",
    "count",
    "find_all",
    "find_first",
    "is_valid_path",
    "trace_path",
    "MatchingResult",
    "MaximalMatch",
    "matching_statistics",
    "maximal_matches",
    "SpineStatistics",
    "collect_statistics",
    "verify_index",
    "RepeatHit",
    "longest_common_substring",
    "longest_repeated_substring",
    "repeat_annotation",
    "repeat_fraction",
    "load_index",
    "save_index",
    "SearchCursor",
    "StreamEvent",
    "StreamMatcher",
]
