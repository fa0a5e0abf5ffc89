"""Independent answer oracles for the differential fuzzer.

Two oracles that share none of SPINE's code paths (plus
:func:`~repro.core.matching.brute_force_matching_statistics`, direct
substring testing, for the streaming verbs):

* a naive overlapping ``str.find`` scan (the ground truth), and
* :class:`repro.suffixarray.SuffixArrayIndex` (binary search over the
  sorted suffixes — an entirely different index family).

Both answer through the same normalized outcome convention the layer
harness uses: ``("ok", value)`` or ``("error", ExceptionClassName)``,
with the cross-layer pattern-semantics contract applied (empty pattern:
``contains`` is True, ``find_first`` is 0, ``find_all``/``count`` raise
``SearchError``; foreign characters: a clean miss). Case-insensitive
alphabets are handled by folding both text and pattern through the
alphabet's coder before comparing.
"""

from __future__ import annotations

from repro.alphabet import Alphabet
from repro.core.matching import brute_force_matching_statistics

#: Streaming verbs: the pattern is the whole query string.
MATCHING_OPS = ("matching_statistics", "maximal_matches")
OPS = ("contains", "find_first", "find_all", "count") + MATCHING_OPS


class Oracle:
    """Ground-truth answers for one (text, alphabet) pair."""

    def __init__(self, text, alphabet=None, symbols="ab",
                 case_insensitive=False):
        if alphabet is None:
            alphabet = Alphabet(symbols, name="fuzz",
                                case_insensitive=case_insensitive)
        self.alphabet = alphabet
        #: Alphabet-folded text — what every layer actually indexes.
        self.text = alphabet.decode(alphabet.encode(text))

    def fold(self, pattern):
        """Canonical form of ``pattern``, or ``None`` when any
        character is foreign to the alphabet."""
        codes = self.alphabet.try_encode(pattern)
        if codes is None:
            return None
        return self.alphabet.decode(codes)

    def naive_starts(self, pattern):
        """All (overlapping) occurrence starts by repeated
        ``str.find`` — assumes ``pattern`` is already folded."""
        starts = []
        at = self.text.find(pattern)
        while at != -1:
            starts.append(at)
            at = self.text.find(pattern, at + 1)
        return starts

    def expected(self, op, pattern):
        """Normalized expected outcome of ``op`` on ``pattern``."""
        if op in MATCHING_OPS:
            return self.expected_matching(op, pattern)
        if pattern == "":
            if op == "contains":
                return ("ok", True)
            if op == "find_first":
                return ("ok", 0)
            return ("error", "SearchError")
        folded = self.fold(pattern)
        if folded is None:
            return ("ok", {"contains": False, "find_first": None,
                           "find_all": [], "count": 0}[op])
        starts = self.naive_starts(folded)
        if op == "contains":
            return ("ok", bool(starts))
        if op == "find_first":
            return ("ok", starts[0] if starts else None)
        if op == "count":
            return ("ok", len(starts))
        return ("ok", starts)

    def expected_matching(self, op, query):
        """Expected matching statistics (the ``lengths`` list) or
        maximal matches (``[query_start, length, data_starts]`` per
        right-maximal run, ``min_length`` 1) of ``query``; a foreign
        character makes the whole stream fail with ``AlphabetError``."""
        folded = self.fold(query)
        if folded is None:
            return ("error", "AlphabetError")
        lengths = brute_force_matching_statistics(self.text, folded)
        if op == "matching_statistics":
            return ("ok", lengths)
        matches = []
        for j, length in enumerate(lengths):
            if length and (j + 1 == len(lengths)
                           or lengths[j + 1] != length + 1):
                start = j + 1 - length
                matches.append([start, length, self.naive_starts(
                    folded[start:j + 1])])
        return ("ok", matches)

    def expected_batch(self, pattern):
        """``(status, starts)`` a batch engine must report."""
        folded = self.fold(pattern)
        if folded is None:
            return ("alphabet-miss", [])
        starts = self.naive_starts(folded)
        return ("hit" if starts else "miss", starts)

    def suffix_array_starts(self, pattern):
        """The second, independent oracle — only called for folded,
        non-empty patterns. Built lazily (and cached) because the
        fuzzer asks many patterns of the same text."""
        index = getattr(self, "_sa", None)
        if index is None:
            from repro.suffixarray import SuffixArrayIndex

            index = SuffixArrayIndex(self.text, alphabet=self.alphabet)
            self._sa = index
        return index.find_all(pattern)
