"""The paper's worked example, pinned edge by edge.

Figure 3 shows the complete SPINE index for ``aaccacaaca``; Section 3.1
narrates the construction cases. Every label stated or derivable from
the paper is asserted here, so any semantic drift in the construction
algorithm fails loudly.
"""

import pytest

from repro.core import SpineIndex, verify_index
from repro.core.search import find_first_end

STRING = "aaccacaaca"


@pytest.fixture(scope="module")
def index():
    return SpineIndex(STRING)


class TestBackbone:
    def test_node_count_equals_length_plus_root(self, index):
        assert index.node_count == len(STRING) + 1

    def test_text_recoverable_from_vertebras(self, index):
        # "the data string is not required any more once the index is
        # constructed" (Section 1.1).
        assert index.text == STRING

    def test_vertebra_labels(self, index):
        for i, ch in enumerate(STRING, start=1):
            assert index.vertebra_label(i) == index.alphabet.encode_char(ch)


class TestLinks:
    """The full link table derived by hand from the paper's cases."""

    EXPECTED = {
        1: (0, 0),   # first character -> root
        2: (1, 1),   # CASE 1 example in Section 3.1
        3: (0, 0),   # CASE 3 example (rib creation down to the root)
        4: (3, 1),   # CASE 2 example ("rib for c with sufficient PT")
        5: (1, 1),   # Section 2.2: L(B_5) = {a}
        6: (3, 2),
        7: (5, 2),   # CASE 4 example ("link from N7 to N5 with LEL 2")
        8: (2, 2),   # Section 2.4: "link from N8 to N2 ... LEL of 2"
        9: (3, 3),
        10: (7, 3),
    }

    @pytest.mark.parametrize("node", sorted(EXPECTED))
    def test_link(self, index, node):
        assert index.link(node) == self.EXPECTED[node]


class TestRibs:
    def test_rib_set(self, index):
        code_a = index.alphabet.encode_char("a")
        code_c = index.alphabet.encode_char("c")
        assert index.rib(0, code_c) == (3, 0)
        assert index.rib(1, code_c) == (3, 1)  # Section 3.1, CASE 3
        assert index.rib(3, code_a) == (5, 1)  # "rib from Node 3, PT 1"
        assert index.rib(5, code_a) == (8, 2)
        assert index.edge_counts()["ribs"] == 4

    def test_no_other_ribs(self, index):
        present = {(node, code)
                   for node in range(index.node_count)
                   for code in range(index.alphabet.total_size)
                   if index.rib(node, code) is not None}
        assert present == {(0, 1), (1, 1), (3, 0), (5, 0)}


class TestExtribs:
    def test_extrib_chain_of_rib_at_3(self, index):
        # Figure 3: extrib N5 -> N7 with (PT 2, PRT 1), then the chain
        # continues N7 -> N10 with (PT 3, PRT 1).
        code_a = index.alphabet.encode_char("a")
        assert index.extrib_chain(3, code_a) == [(7, 2), (10, 3)]

    def test_paper_physical_placement(self, index):
        assert index.extrib_elements() == [(5, 7, 2, 1), (7, 10, 3, 1)]

    def test_extrib_count(self, index):
        assert index.extrib_count == 2


class TestEdgeAccounting:
    def test_figure3_26_edges(self, index):
        counts = index.edge_counts()
        assert counts == {"vertebras": 10, "links": 10,
                          "ribs": 4, "extribs": 2}
        assert sum(counts.values()) == 26  # stated in Section 1.1

    def test_eleven_nodes(self, index):
        assert index.node_count == 11


class TestPaperSearches:
    def test_false_positive_accaa_rejected(self, index):
        # Section 2.1/4: "the accaa path will not be permitted".
        assert not index.contains("accaa")

    def test_ac_occurrences(self, index):
        # Section 4's target-node-buffer walk: ends at nodes 3, 6, 9.
        assert index.find_all("ac") == [1, 4, 7]

    def test_ac_trace_ends_at_first_occurrence(self, index):
        # The valid path of "ac" is root -> 1 (vertebra) -> 3 (rib).
        end, _ = find_first_end(index, index.alphabet.encode("ac"))
        assert end == 3

    def test_all_substrings_present(self, index):
        subs = {STRING[i:j] for i in range(len(STRING))
                for j in range(i + 1, len(STRING) + 1)}
        for sub in subs:
            assert index.contains(sub), sub

    def test_cacaaca_repetition_pattern(self, index):
        # The introduction's motivating repeated pattern.
        assert index.contains("cacaaca")
        assert index.find_all("caca") == [3]


class TestInvariants:
    def test_deep_verification(self, index):
        assert verify_index(index, deep=True)
