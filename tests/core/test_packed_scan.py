"""The packed layer's link scan (``PackedSpineIndex.iter_link_entries``).

The packed scan finds the entries that can reach the targets with
array operations and re-tests only those entry by entry. These tests
hold it to the per-entry rule it replaces — "``LEL >= min_lel`` and
``dest`` is already a target", tested in ascending order while the
caller grows the targets — written out below as the reference.
"""

import random

import pytest

from repro.alphabet import Alphabet, dna_alphabet
from repro.core import SpineIndex, search
from repro.core.packed import OVERFLOW_SENTINEL, PackedSpineIndex
from repro.core.search import OccurrenceScanner
from repro.resilience import CancellationToken, Deadline
from repro.sequences import derive_sequence, generate_dna


def reference_entries(packed, lo, hi, min_lel, targets):
    """The per-entry scan rule: one ``link`` lookup per node."""
    for j in range(lo + 1, min(hi, len(packed)) + 1):
        dest, lel = packed.link(j)
        if lel >= min_lel and dest in targets:
            yield j, dest, lel


def drive(entries, patterns, n, window):
    """Run ``entries`` (an ``iter_link_entries``) the way
    :class:`OccurrenceScanner` does: targets start at the first ends,
    and a yielded node becomes a target when some pattern ending at its
    destination fits within its LEL. Returns every yielded entry and
    the accepted nodes."""
    node_targets = {}
    for pid, (first_end, length) in enumerate(patterns):
        node_targets.setdefault(first_end, []).append((pid, length))
    min_length = min(length for _, length in patterns)
    lo = min(first_end for first_end, _ in patterns)
    yielded = []
    accepted = set()
    while lo < n:
        hi = min(lo + window, n)
        for j, dest, lel in entries(lo, hi, min_length, node_targets):
            yielded.append((j, dest, lel))
            hits = [(pid, length) for pid, length in node_targets[dest]
                    if lel >= length]
            if hits:
                node_targets.setdefault(j, []).extend(hits)
                accepted.add(j)
        lo = hi
    return yielded, accepted


def closure(packed, patterns):
    """Nodes whose link chain through LEL-qualifying nodes reaches a
    first end — what the packed scan keeps before its per-entry
    re-test."""
    min_length = min(length for _, length in patterns)
    reached = {first_end for first_end, _ in patterns}
    out = set()
    for j in range(min(reached) + 1, len(packed) + 1):
        dest, lel = packed.link(j)
        if lel >= min_length and dest in reached:
            reached.add(j)
            out.add(j)
    return out


def first_ends(packed, pattern_list):
    out = []
    for pattern in pattern_list:
        end = search.find_first_end(packed, packed.alphabet.encode(pattern))
        if end is not None:
            out.append((end, len(pattern)))
    return out


def sample_patterns(text, count, lengths, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.randint(*lengths)
        start = rng.randrange(len(text) - length + 1)
        out.append(text[start:start + length])
    return out


def _random_dna(n, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("ACGT") for _ in range(n))


def _repeat_rich(n, seed):
    base = generate_dna(n // 2, seed=seed, repeat_fraction=0.6)
    return (base + derive_sequence(base, seed=seed + 1))[:n]


TEXTS = {
    "random-dna": (lambda: _random_dna(6000, 1), dna_alphabet),
    "a-run": (lambda: "a" * 3000, lambda: Alphabet("ab")),
    "ab-run": (lambda: "ab" * 1500, lambda: Alphabet("ab")),
    "repeat-rich": (lambda: _repeat_rich(6000, 2), dna_alphabet),
}


@pytest.fixture(scope="module", params=sorted(TEXTS))
def packed_text(request):
    make_text, make_alphabet = TEXTS[request.param]
    text = make_text()
    index = SpineIndex(text, alphabet=make_alphabet())
    return PackedSpineIndex.from_index(index), text


WINDOWS = [None, OccurrenceScanner.CANCEL_CHUNK, 257]


@pytest.mark.parametrize("window", WINDOWS)
def test_single_patterns_match_reference(packed_text, window):
    packed, text = packed_text
    n = len(packed)
    step = n if window is None else window
    for pattern in sample_patterns(text, 25, (2, 24), seed=3):
        patterns = first_ends(packed, [pattern])
        got = drive(packed.iter_link_entries, patterns, n, step)
        want = drive(lambda *a: reference_entries(packed, *a),
                     patterns, n, step)
        assert got == want, pattern


@pytest.mark.parametrize("window", WINDOWS)
def test_mixed_length_batch_matches_reference(packed_text, window):
    packed, text = packed_text
    n = len(packed)
    step = n if window is None else window
    patterns = first_ends(packed,
                          sample_patterns(text, 40, (3, 40), seed=5))
    got_yielded, got_accepted = drive(packed.iter_link_entries,
                                      patterns, n, step)
    want_yielded, want_accepted = drive(
        lambda *a: reference_entries(packed, *a), patterns, n, step)
    assert got_yielded == want_yielded
    assert got_accepted == want_accepted


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
    yielded, accepted = drive(packed.iter_link_entries, patterns,
                              len(packed), len(packed))
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
    every_node = dict.fromkeys(range(n + 1))
    for min_lel in (1, 2, OVERFLOW_SENTINEL, OVERFLOW_SENTINEL + 5,
                    OVERFLOW_SENTINEL + 6):
        for lo, hi in ((0, n), (n // 2 - 1, n // 2 + 1), (n - 3, n)):
            for targets in (every_node, {0: None, 1: None, 2: None}):
                got = list(packed.iter_link_entries(lo, hi, min_lel,
                                                    targets))
                want = list(reference_entries(packed, lo, hi, min_lel,
                                              targets))
                assert got == want, (min_lel, lo, hi)


def test_cancel_token_answers_equal_plain_find_all(packed_text):
    packed, text = packed_text
    for pattern in sample_patterns(text, 20, (1, 12), seed=9):
        token = CancellationToken(Deadline.after(60.0))
        assert search.find_all(packed, pattern, cancel=token) == \
            search.find_all(packed, pattern)
