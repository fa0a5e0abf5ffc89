"""Packed (Section 5) layout: equivalence with the reference index and
space accounting."""

import pytest

from repro.alphabet import Alphabet, dna_alphabet, protein_alphabet
from repro.core import SpineIndex
from repro.core.packed import OVERFLOW_SENTINEL, PackedSpineIndex
from repro.exceptions import SearchError
from repro.sequences import generate_dna, generate_protein
from tests.conftest import brute_occurrences


@pytest.fixture(scope="module")
def pair():
    text = generate_dna(20000, seed=13)
    index = SpineIndex(text, alphabet=dna_alphabet())
    return index, PackedSpineIndex.from_index(index)


class TestEquivalence:
    def test_links_identical(self, pair):
        index, packed = pair
        for i in range(1, len(index) + 1):
            assert packed.link(i) == index.link(i)

    def test_ribs_identical(self, pair):
        index, packed = pair
        for node in range(len(index) + 1):
            assert packed.ribs_at(node) == index.ribs_at(node)

    def test_step_identical_on_probes(self, pair):
        index, packed = pair
        text = index.text
        for start in range(0, len(text) - 30, 257):
            node, length = 0, 0
            for ch in text[start:start + 30]:
                code = index.alphabet.encode_char(ch)
                a = index.step(node, length, code)
                b = packed.step(node, length, code)
                assert a == b
                if a is None:
                    break
                node, length = a, length + 1

    def test_find_all_identical(self, pair):
        index, packed = pair
        text = index.text
        for start in (0, 97, 1203, 3900, 19000):
            pattern = text[start:start + 12]
            assert packed.find_all(pattern) == index.find_all(pattern)
            assert sorted(packed.find_all(pattern)) == brute_occurrences(
                text, pattern)

    def test_contains_and_find_first(self, pair):
        index, packed = pair
        text = index.text
        assert packed.contains(text[50:80])
        assert packed.find_first(text[50:80]) == index.find_first(
            text[50:80])
        assert not packed.contains("A" * 64) or "A" * 64 in text

    def test_text_roundtrip(self, pair):
        index, packed = pair
        assert packed.text == index.text
        assert len(packed) == len(index)
        assert packed.node_count == index.node_count


class TestSpaceModel:
    def test_under_12_bytes_for_dna(self, pair):
        _, packed = pair
        assert packed.measured_bytes()["bytes_per_char"] < 12.0

    def test_breakdown_sums(self, pair):
        _, packed = pair
        mb = packed.measured_bytes()
        parts = (mb["link_table"] + mb["character_labels"]
                 + mb["rib_tables"] + mb["extrib_region"]
                 + mb["overflow_table"])
        assert parts == mb["total"]

    def test_protein_packs_too(self):
        text = generate_protein(2500, seed=3)
        index = SpineIndex(text, alphabet=protein_alphabet())
        packed = PackedSpineIndex.from_index(index)
        for i in range(1, len(index) + 1, 37):
            assert packed.link(i) == index.link(i)
        # 5-bit labels and sparse ribs keep proteins compact as well.
        # The paper quotes < 12 for multi-Mbp DNA; proteins at
        # this tiny scale stay close.
        assert packed.measured_bytes()["bytes_per_char"] < 14.5


class TestEdgeCases:
    def test_empty_index(self):
        packed = PackedSpineIndex.from_index(
            SpineIndex(alphabet=dna_alphabet()))
        assert len(packed) == 0
        assert packed.contains("")
        assert not packed.contains("A")

    def test_find_all_empty_pattern(self, pair):
        _, packed = pair
        with pytest.raises(SearchError):
            packed.find_all("")

    def test_link_out_of_range(self, pair):
        _, packed = pair
        with pytest.raises(SearchError):
            packed.link(0)

    def test_overflow_sentinel_respected(self):
        # Force an artificial overflow by patching a large LEL into a
        # small index before packing.
        index = SpineIndex("ab" * 40, alphabet=Alphabet("ab"))
        index._link_lel[-1] = OVERFLOW_SENTINEL + 5
        packed = PackedSpineIndex.from_index(index)
        assert packed.link(len(index))[1] == OVERFLOW_SENTINEL + 5

    def test_repr(self, pair):
        _, packed = pair
        assert "PackedSpineIndex" in repr(packed)


class TestPackedMatching:
    def test_matching_statistics_equal_reference(self, pair):
        from repro.core.matching import matching_statistics

        index, packed = pair
        query = generate_dna(1500, seed=14)
        ref = matching_statistics(index, query)
        got = packed.matching_statistics(query)
        assert got.lengths == ref.lengths
        assert got.end_nodes == ref.end_nodes
        assert got.checks == ref.checks

    def test_randomized_equivalence(self):
        import random as _random

        from repro.core.matching import matching_statistics

        rng = _random.Random(15)
        for _ in range(40):
            syms = "ab" if rng.random() < 0.5 else "abcd"
            text = "".join(rng.choice(syms)
                           for _ in range(rng.randint(2, 80)))
            query = "".join(rng.choice(syms)
                            for _ in range(rng.randint(1, 50)))
            index = SpineIndex(text, alphabet=Alphabet(syms))
            packed = PackedSpineIndex.from_index(index)
            assert packed.matching_statistics(query).lengths == \
                matching_statistics(index, query).lengths, (text, query)

