"""Construction-level behaviour of SpineIndex."""

import pytest

from repro.alphabet import Alphabet, dna_alphabet
from repro.core import SpineIndex, verify_index
from repro.exceptions import AlphabetError, ConstructionError, SearchError


class TestEmptyAndTiny:
    def test_empty_index(self):
        index = SpineIndex(alphabet=dna_alphabet())
        assert len(index) == 0
        assert index.node_count == 1
        assert index.contains("")
        assert not index.contains("A")

    def test_single_character(self):
        index = SpineIndex("A", alphabet=dna_alphabet())
        assert len(index) == 1
        assert index.link(1) == (0, 0)
        assert index.contains("A")
        assert not index.contains("AA")

    def test_two_identical_characters(self):
        index = SpineIndex("AA", alphabet=dna_alphabet())
        assert index.link(2) == (1, 1)
        assert index.find_all("A") == [0, 1]

    def test_run_of_same_character(self):
        index = SpineIndex("A" * 30, alphabet=dna_alphabet())
        assert verify_index(index, deep=True)
        assert index.find_all("AAA") == list(range(28))
        # A unary run needs no ribs at all.
        assert index.edge_counts()["ribs"] == 0


class TestOnlineGrowth:
    def test_extend_in_pieces_equals_single_build(self):
        text = "ACGTACGGTTACGA"
        whole = SpineIndex(text, alphabet=dna_alphabet())
        pieces = SpineIndex(alphabet=dna_alphabet())
        pieces.extend(text[:5])
        pieces.extend(text[5:9])
        for ch in text[9:]:
            pieces.append_char(ch)
        assert whole.structurally_equal(pieces)

    def test_append_code_out_of_range(self):
        index = SpineIndex(alphabet=dna_alphabet())
        with pytest.raises(ConstructionError):
            index.append_code(99)
        with pytest.raises(ConstructionError):
            index.append_code(-1)

    def test_rejected_extend_changes_nothing(self):
        index = SpineIndex("ACGT")
        before = SpineIndex("ACGT")
        with pytest.raises(AlphabetError):
            index.extend("ACXG")
        with pytest.raises(AlphabetError):
            index.append_char("X")
        assert len(index) == 4
        assert index.text == "ACGT"
        assert index.structurally_equal(before)
        index.extend("ACG")
        assert index.find_all("ACG") == [0, 4]

    def test_growth_is_queryable_between_appends(self):
        index = SpineIndex(alphabet=Alphabet("ab"))
        text = "abaabbab"
        for i, ch in enumerate(text, start=1):
            index.append_char(ch)
            assert index.contains(text[:i])
            assert index.text == text[:i]


class TestAccessors:
    def test_link_out_of_range(self):
        index = SpineIndex("AC", alphabet=dna_alphabet())
        with pytest.raises(SearchError):
            index.link(0)
        with pytest.raises(SearchError):
            index.link(3)

    def test_vertebra_label_out_of_range(self):
        index = SpineIndex("AC", alphabet=dna_alphabet())
        with pytest.raises(SearchError):
            index.vertebra_label(0)
        with pytest.raises(SearchError):
            index.vertebra_label(3)

    def test_ribs_at(self):
        index = SpineIndex("aaccacaaca")
        assert index.ribs_at(3) == {0: (5, 1)}
        assert index.ribs_at(2) == {}

    def test_repr_mentions_size(self):
        index = SpineIndex("aaccacaaca")
        assert "n=10" in repr(index)

    def test_count(self):
        index = SpineIndex("aaccacaaca")
        assert index.count("a") == 6
        assert index.count("ca") == 3
        assert index.count("q" if "q" in index.alphabet else "cc") == 1


class TestStructuralEquality:
    """``structurally_equal`` sees a change to any part of the index."""

    def test_identical_indexes_are_equal(self):
        assert SpineIndex("aaccacaaca").structurally_equal(
            SpineIndex("aaccacaaca"))

    def test_length_difference_detected(self):
        assert not SpineIndex("aacc").structurally_equal(
            SpineIndex("aaccac"))

    def test_link_corruption_detected(self):
        a = SpineIndex("aaccacaaca")
        b = SpineIndex("aaccacaaca")
        b._link_lel[7] = 1
        assert not a.structurally_equal(b)

    def test_rib_difference_detected(self):
        a = SpineIndex("aaccacaaca")
        b = SpineIndex("aaccacaaca")
        del b._ribs[next(iter(b._ribs))]
        assert not a.structurally_equal(b)

    def test_extrib_difference_detected(self):
        a = SpineIndex("aaccacaaca")
        b = SpineIndex("aaccacaaca")
        key = next(iter(b._extchains))
        b._extchains[key] = b._extchains[key][:-1]
        assert not a.structurally_equal(b)


class TestStatsTracking:
    def test_counters_populated_when_tracking(self):
        tracked = SpineIndex("aaccacaaca" * 3, track_stats=True)
        counters = tracked.construction_counters
        assert counters["chain_hops"] > 0
        assert counters["rib_creations"] == len(tracked._ribs)
        assert counters["extrib_creations"] == tracked.extrib_count

    def test_tracked_build_is_identical(self):
        text = "aaccacaaca" * 5
        assert SpineIndex(text).structurally_equal(
            SpineIndex(text, track_stats=True))


class TestAlphabetInference:
    def test_inferred_alphabet(self):
        index = SpineIndex("banana")
        assert index.alphabet.symbols == "abn"
        assert index.find_all("ana") == [1, 3]

    def test_explicit_alphabet_preserved(self):
        index = SpineIndex("ACAC", alphabet=dna_alphabet())
        assert index.alphabet.name == "dna"
