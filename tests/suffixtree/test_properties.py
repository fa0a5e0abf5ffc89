"""Property-based tests for the suffix-tree baseline."""

from hypothesis import given, settings, strategies as st

from repro.alphabet import Alphabet
from repro.core.matching import brute_force_matching_statistics
from repro.suffixtree import SuffixTree, st_matching_statistics
from tests.conftest import brute_occurrences

texts = st.text(alphabet="ab", min_size=1, max_size=60)


@settings(max_examples=100, deadline=None)
@given(texts, st.data())
def test_find_all_property(text, data):
    tree = SuffixTree(text, alphabet=Alphabet("ab")).finalize()
    pattern = data.draw(st.text(alphabet="ab", min_size=1, max_size=8))
    assert tree.find_all(pattern) == brute_occurrences(text, pattern)


@settings(max_examples=80, deadline=None)
@given(texts, st.text(alphabet="ab", min_size=0, max_size=40))
def test_matching_statistics_property(text, query):
    tree = SuffixTree(text, alphabet=Alphabet("ab"))
    assert st_matching_statistics(tree, query).lengths == \
        brute_force_matching_statistics(text, query)


@settings(max_examples=80, deadline=None)
@given(texts)
def test_structure_bounds(text):
    tree = SuffixTree(text, alphabet=Alphabet("ab")).finalize()
    n = len(text)
    # Leaves: one per suffix including the sentinel-only suffix.
    assert tree.leaf_count() == n + 1
    # Classic node bound for a finalized tree over n+1 leaves.
    assert tree.node_count <= 2 * (n + 1)
    assert tree.internal_node_count() + tree.leaf_count() \
        == tree.node_count


@settings(max_examples=60, deadline=None)
@given(texts, st.integers(min_value=1, max_value=4))
def test_online_extension_property(text, pieces):
    whole = SuffixTree(text, alphabet=Alphabet("ab"))
    chunked = SuffixTree(alphabet=Alphabet("ab"))
    step = max(1, len(text) // pieces)
    for i in range(0, len(text), step):
        chunked.extend(text[i:i + step])
    # Same substring language (structure may differ in active state).
    for i in range(len(text)):
        for j in range(i + 1, min(i + 7, len(text) + 1)):
            assert chunked.contains(text[i:j])
    assert not chunked.contains(text + "a") \
        or (text + "a") in text
