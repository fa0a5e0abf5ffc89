"""Search-layer tests: first/all occurrences, batched scanning, paths."""

import pytest

from repro.core import (
    OccurrenceScanner, SpineIndex, find_all, find_first, is_valid_path,
    trace_path)
from repro.core.search import find_first_end, step
from repro.exceptions import SearchError
from tests.conftest import (
    PAPER_STRING, brute_occurrences, lock_checked_index, three_layers)


@pytest.fixture(scope="module")
def index():
    return SpineIndex("abracadabraabracadabra")


class TestFindFirst:
    def test_finds_first_not_any(self, index):
        text = index.text
        for pattern in ("abra", "a", "cad", "abracadabra", "raab"):
            assert find_first(index, pattern) == text.find(pattern)

    def test_absent_pattern(self, index):
        assert find_first(index, "zzz" if "z" in index.alphabet
                          else "dd") is None

    def test_empty_pattern_at_zero(self, index):
        assert find_first(index, "") == 0

    def test_find_first_end_is_node_id(self, index):
        codes = index.alphabet.encode("abra")
        assert find_first_end(index, codes) == (4, 4)


class TestFindAll:
    @pytest.mark.parametrize("pattern", ["a", "ab", "abra", "bra",
                                         "abracadabra", "aa", "ra"])
    def test_matches_brute_force(self, index, pattern):
        assert find_all(index, pattern) == brute_occurrences(
            index.text, pattern)

    def test_overlapping_occurrences(self):
        idx = SpineIndex("aaaa")
        assert find_all(idx, "aa") == [0, 1, 2]

    def test_empty_pattern_rejected(self, index):
        with pytest.raises(SearchError):
            find_all(index, "")

    def test_absent_pattern_empty_list(self, index):
        assert find_all(index, "dddd") == []


class TestOccurrenceScanner:
    def test_batched_equals_individual(self, index):
        text = index.text
        patterns = ["abra", "a", "ra", "cad"]
        scanner = OccurrenceScanner(index)
        pids = {}
        for p in patterns:
            end, _ = find_first_end(index, index.alphabet.encode(p))
            pids[p] = scanner.add(end, len(p))
        starts = scanner.resolve_starts()
        for p in patterns:
            assert starts[pids[p]] == brute_occurrences(text, p), p

    def test_add_validates_length(self, index):
        scanner = OccurrenceScanner(index)
        with pytest.raises(SearchError):
            scanner.add(3, 0)

    def test_add_validates_node(self, index):
        scanner = OccurrenceScanner(index)
        with pytest.raises(SearchError):
            scanner.add(0, 1)
        with pytest.raises(SearchError):
            scanner.add(len(index) + 1, 1)

    def test_add_rejects_impossible_registration(self, index):
        # A pattern of length m ending at node e starts at e - m; any
        # m > e is geometrically impossible and used to be accepted
        # silently, yielding negative start positions at resolve time.
        scanner = OccurrenceScanner(index)
        with pytest.raises(SearchError, match="cannot end"):
            scanner.add(3, 4)
        scanner.add(3, 3)  # boundary: start 0 is fine

    def test_empty_scanner_resolves_empty(self, index):
        assert OccurrenceScanner(index).resolve() == {}

    def test_duplicate_patterns_allowed(self, index):
        scanner = OccurrenceScanner(index)
        end, _ = find_first_end(index, index.alphabet.encode("abra"))
        pid1 = scanner.add(end, 4)
        pid2 = scanner.add(end, 4)
        starts = scanner.resolve_starts()
        assert starts[pid1] == starts[pid2]


class TestPathTracing:
    def test_trace_follows_backbone_and_ribs(self):
        idx = SpineIndex("aaccacaaca")
        assert trace_path(idx, "aacc") == [0, 1, 2, 3, 4]
        assert trace_path(idx, "ac") == [0, 1, 3]

    def test_trace_none_for_invalid(self):
        idx = SpineIndex("aaccacaaca")
        assert trace_path(idx, "accaa") is None

    def test_foreign_character_is_not_a_path(self, paper_layers):
        for idx in paper_layers.values():
            assert trace_path(idx, "ACXG") is None
            assert idx.contains("ACXG") is False
            assert trace_path(idx, "ACAA") == [0, 1, 3, 7, 8]

    def test_walks_under_the_read_lock(self):
        idx = lock_checked_index(PAPER_STRING)
        assert trace_path(idx, "acaa") == [0, 1, 3, 7, 8]
        assert trace_path(idx, "accaa") is None
        assert idx.entries == 2

    def test_is_valid_path_equals_substring(self):
        idx = SpineIndex("aaccacaaca")
        text = idx.text
        for pattern in ("", "a", "cc", "accaa", "caacaa", "aaccacaaca"):
            assert is_valid_path(idx, pattern) == (pattern in text)


@pytest.fixture(scope="module")
def paper_layers():
    with three_layers(PAPER_STRING) as layers:
        yield layers


class TestStep:
    """``search.step`` — the one edge rule — on the paper's example,
    identically on every layer."""

    def test_vertebra_always_traversable(self, paper_layers):
        for idx in paper_layers.values():
            # Vertebra from node 0 labeled 'a' at any path length.
            code_a = idx.alphabet.encode_char("a")
            assert step(idx, 0, 0, code_a) == 1
            assert step(idx, 0, 7, code_a) == 1

    def test_rib_threshold_enforced(self, paper_layers):
        for idx in paper_layers.values():
            code_a = idx.alphabet.encode_char("a")
            # Rib at node 5 has PT 2: pathlength 2 passes, 3 falls
            # through to the (absent) chain and fails.
            assert step(idx, 5, 2, code_a) == 8
            assert step(idx, 5, 3, code_a) is None

    def test_extrib_fallthrough(self, paper_layers):
        for idx in paper_layers.values():
            code_a = idx.alphabet.encode_char("a")
            # Rib at node 3 (PT 1) fails at pathlength 2; its first
            # extrib (PT 2) covers it and leads to node 7.
            assert step(idx, 3, 2, code_a) == 7
            # Pathlength 3 is covered by the second chain element.
            assert step(idx, 3, 3, code_a) == 10
            # Pathlength 4 exceeds the whole chain.
            assert step(idx, 3, 4, code_a) is None
