"""The packed layer's window decoder (``PackedSpineIndex.link_candidates``)
under the engine's link scan.

The shared checks of ``test_link_scan.py`` — every entry yielded
exactly as by the per-entry reference, while the scanner grows the
target bitmap — run here on the packed layer; the checks below are the
packed-only ones (the closure's superset, overflowed LELs, windows
without a cancel token).
"""

import pytest

from repro.alphabet import Alphabet
from repro.core import SpineIndex, search
from repro.core.batch import batch_find_all
from repro.core.packed import OVERFLOW_SENTINEL, PackedSpineIndex

from tests.core.test_link_scan import (  # noqa: F401 (collected here)
    TEXTS, by_reference, drive, first_ends,
    reference_entries, sample_patterns, target_bitmap,
    test_cancel_token_answers_equal_plain_find_all,
    test_mixed_length_batch_matches_reference,
    test_single_patterns_match_reference, _random_dna)


def closure(packed, patterns):
    """Nodes whose link chain through LEL-qualifying nodes reaches a
    first end — what the scan keeps before its per-entry re-test."""
    min_length = min(length for _, length in patterns)
    reached = {first_end for first_end, _ in patterns}
    out = set()
    for j in range(min(reached) + 1, len(packed) + 1):
        dest, lel = packed.link(j)
        if lel >= min_length and dest in reached:
            reached.add(j)
            out.add(j)
    return out


@pytest.fixture(scope="module", params=sorted(TEXTS))
def layer_text(request):
    make_text, make_alphabet = TEXTS[request.param]
    text = make_text()
    index = SpineIndex(text, alphabet=make_alphabet())
    return PackedSpineIndex.from_index(index), text


def test_closure_is_a_strict_superset_in_mixed_batches():
    # With lengths 3-40 some yielded entries fail every pattern's LEL
    # test and never become targets; the nodes linking to them are
    # still in the closure, so only the per-entry re-test keeps them
    # out of the answer.
    make_text, make_alphabet = TEXTS["repeat-rich"]
    text = make_text()
    packed = PackedSpineIndex.from_index(
        SpineIndex(text, alphabet=make_alphabet()))
    patterns = first_ends(packed,
                          sample_patterns(text, 40, (3, 40), seed=5))
    yielded, accepted = drive(packed, patterns, len(packed), len(packed))
    reached = closure(packed, patterns)
    assert accepted <= {j for j, _, _ in yielded} <= reached
    assert reached - {j for j, _, _ in yielded}


def test_overflow_lel_entries_match_reference():
    index = SpineIndex("ab" * 40, alphabet=Alphabet("ab"))
    n = len(index)
    # Overflowed LELs in the middle and at the end of the backbone.
    for node in (n // 2, n // 2 + 2, n):
        index._link_lel[node] = OVERFLOW_SENTINEL + 5
    packed = PackedSpineIndex.from_index(index)
    assert packed.link(n) == (index.link(n)[0], OVERFLOW_SENTINEL + 5)
    every_node = set(range(n + 1))
    for min_lel in (1, 2, OVERFLOW_SENTINEL, OVERFLOW_SENTINEL + 5,
                    OVERFLOW_SENTINEL + 6):
        for lo, hi in ((0, n), (n // 2 - 1, n // 2 + 1), (n - 3, n)):
            # The decoder resolves the overflowed LELs itself.
            columns = packed.link_candidates(lo + 1, hi + 1, min_lel)
            got = ([] if columns is None else
                   list(zip(*(column.tolist() for column in columns))))
            assert got == list(reference_entries(packed, lo, hi, min_lel,
                                                 every_node))
            for targets in (every_node, {0, 1, 2}):
                bitmap, base = target_bitmap(targets, hi)
                got = list(search.link_scan(packed, lo, hi, min_lel,
                                            bitmap, base))
                want = list(reference_entries(packed, lo, hi, min_lel,
                                              targets))
                assert got == want, (min_lel, lo, hi)


def test_uncancelled_scan_is_windowed(monkeypatch):
    # Without a cancel token the packed scan still runs through the
    # engine's windows: never more than one stride per decode.
    text = _random_dna(6 * search.SCAN_WINDOW, 7)
    packed = PackedSpineIndex.from_index(SpineIndex(text))
    asked = []
    decode = packed.link_candidates

    def counted(start, stop, min_lel):
        asked.append(stop - start)
        return decode(start, stop, min_lel)

    monkeypatch.setattr(packed, "link_candidates", counted)
    n = len(packed)
    patterns = [text[:4], text[100:102], text[5000:5012], "ACGTA"]
    for pattern in patterns:
        asked.clear()
        got = search.find_all(packed, pattern)
        assert len(asked) > 1
        assert max(asked) <= packed.scan_stride
        (end, m), = first_ends(packed, [pattern])
        _, accepted = by_reference(packed, [(end, m)], n)
        assert got == [j - m for j in sorted({end} | accepted)]
    asked.clear()
    batch = batch_find_all(packed, patterns)
    assert max(asked) <= packed.scan_stride
    assert [match.starts for match in batch] == \
        [search.find_all(packed, pattern) for pattern in patterns]
