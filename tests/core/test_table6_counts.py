"""Pinned Table 6 counts of matching statistics on every layer.

The paper's Table 6 compares how many suffix sets SPINE checks against a
suffix tree. ``MatchingResult.checks`` and ``link_hops`` are those
counts, so a change to the engine walk must leave them exactly as they
are. The values below were recorded from the per-call walk that the
single engine walk replaced; every traversal layer must reproduce them,
and the streaming matcher must count the same checks as the batch one.
"""

import random

import pytest

from repro.alphabet import Alphabet, dna_alphabet
from repro.core import SpineIndex, matching
from repro.core.cursor import StreamMatcher
from repro.core.packed import PackedSpineIndex
from repro.disk.spine_disk import DiskSpineIndex
from repro.sequences import derive_sequence, generate_dna

_rng = random.Random(7)
BINARY = "".join(_rng.choice("ab") for _ in range(600))
DNA = generate_dna(2000, seed=6)

#: name -> (text, alphabet factory, query, checks, link_hops, lengths).
#: ``lengths`` is the full list, or its sum for the long query.
PINNED = {
    "paper": (
        "aaccacaaca", lambda: Alphabet("acg"),
        "acaaccaccaacaaccacaacgcaac", 32, 6,
        [1, 2, 3, 4, 5, 4, 5, 6, 3, 4, 3, 4, 5, 4, 5, 4, 5, 6, 7, 8, 9,
         0, 1, 2, 3, 4]),
    "binary": (
        BINARY, lambda: Alphabet("ab"),
        "bbabbaaabbbbbbbbabbbaaaaababbbbaaaaabababbaabbbabbbabbbaaaba",
        75, 15,
        [1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 10, 10, 8, 9, 10, 7, 8, 7, 8, 8, 8,
         9, 10, 11, 12, 13, 12, 8, 9, 8, 9, 10, 11, 9, 10, 9, 9, 10, 8, 8,
         9, 10, 9, 10, 11, 12, 13, 11, 10, 11, 12, 9, 8, 8, 9, 10, 11, 12,
         9, 9]),
    "dna": (
        DNA, dna_alphabet,
        "GGATCGGGTGGCAAGATTTGGTACAGATACGTCTCTCTGGAAGCATGGTCACACAAGGTCAC"
        "CCGGAGGTTTTTGACATT", 96, 16,
        [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
         20, 8, 7, 7, 7, 7, 7, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
         18, 19, 20, 6, 5, 6, 7, 8, 9, 10, 11, 12, 7, 7, 7, 6, 6, 7, 7, 8,
         9, 10, 11, 12, 13, 14, 15, 16, 17, 4, 5, 6, 6, 7, 6, 5, 5, 6, 7,
         8, 6, 7]),
    "dna-long": (
        DNA, dna_alphabet,
        derive_sequence(DNA[900:1500], seed=4) + generate_dna(300, seed=99),
        1190, 284, 12708),
}

LAYERS = ["memory", "packed", "disk"]


def build(layer, text, alphabet):
    memory = SpineIndex(text, alphabet=alphabet)
    if layer == "memory":
        return memory
    if layer == "packed":
        return PackedSpineIndex.from_index(memory)
    # A small pool, so the disk walk fetches and evicts pages.
    disk = DiskSpineIndex(alphabet=alphabet, page_size=512, buffer_pages=8)
    disk.extend(text)
    return disk


@pytest.fixture(scope="module", params=[(layer, name) for layer in LAYERS
                                        for name in sorted(PINNED)],
                ids=lambda p: "-".join(p))
def pinned(request):
    layer, name = request.param
    text, make_alphabet, query, checks, hops, lengths = PINNED[name]
    index = build(layer, text, make_alphabet())
    yield index, text, query, checks, hops, lengths
    if layer == "disk":
        index.close()


def test_checks_link_hops_and_lengths_are_pinned(pinned):
    index, text, query, checks, hops, lengths = pinned
    result = matching.matching_statistics(index, query)
    assert (result.checks, result.link_hops) == (checks, hops)
    got = result.lengths if isinstance(lengths, list) else sum(result.lengths)
    assert got == lengths
    assert result.lengths == \
        matching.brute_force_matching_statistics(text, query)


def test_stream_matcher_counts_the_batch_checks(pinned):
    index, _, query, checks, _, _ = pinned
    _, result = matching.maximal_matches(index, query, min_length=4,
                                         with_positions=False)
    matcher = StreamMatcher(index, min_length=4)
    for ch in query:
        matcher.feed(ch)
    assert matcher.checks == result.checks == checks
