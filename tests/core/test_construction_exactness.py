"""Online construction builds one structure however the text arrives.

``extend`` runs the paper's APPEND (Figure 4) over a whole encoded
chunk in one loop and publishes its effort counts once per chunk;
``append_code`` is that loop over a single code. Building a text one
code at a time or in chunks of any size must give structurally equal
indexes and the same ``construction_counters``, with effort tracking
requested directly and with the metrics registry on.
"""

import numpy as np
import pytest

from repro import obs
from repro.alphabet import dna_alphabet, protein_alphabet
from repro.core.index import SpineIndex
from repro.experiments.construction_effort import run as effort_run
from repro.experiments.workloads import genome
from repro.sequences import generate_dna, generate_protein
from tests.conftest import PAPER_STRING

TEXTS = {
    "paper": (PAPER_STRING * 7, dna_alphabet()),
    "binary": ("".join("ab"[b] for b in np.random.default_rng(2)
                       .integers(0, 2, 4000).tolist()), None),
    "dna": (generate_dna(12_000, seed=6), dna_alphabet()),
    "protein": (generate_protein(3000, seed=4), protein_alphabet()),
}

#: Chunk sizes fed to ``extend``; ``None`` is one ``append_code`` per
#: character.
WAYS = (None, 1, 7, 5000)


def build(text, alphabet, way, track_stats):
    index = SpineIndex(alphabet=alphabet or SpineIndex(text).alphabet,
                       track_stats=track_stats)
    if way is None:
        for code in index.alphabet.encode(text):
            index.append_code(int(code))
    else:
        for i in range(0, len(text), way):
            index.extend(text[i:i + way])
    return index


def assert_same_builds(text, alphabet, track_stats):
    built = [build(text, alphabet, way, track_stats) for way in WAYS]
    whole = SpineIndex(text, alphabet=alphabet)
    for index in built:
        assert index.structurally_equal(whole)
        assert index.construction_counters == \
            built[0].construction_counters
    return built[0].construction_counters


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_every_chunking_builds_the_same_index(name):
    text, alphabet = TEXTS[name]
    counters = assert_same_builds(text, alphabet, track_stats=True)
    assert counters["chain_hops"] >= len(text) - 1
    assert counters["rib_creations"] == \
        len(SpineIndex(text, alphabet=alphabet)._ribs)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_every_chunking_counts_the_same_with_metrics_on(name):
    text, alphabet = TEXTS[name]
    tracked = assert_same_builds(text, alphabet, track_stats=True)
    with obs.metrics_enabled() as registry:
        counted = assert_same_builds(text, alphabet, track_stats=False)
        index = SpineIndex(alphabet=alphabet or SpineIndex(text).alphabet)
        registry.reset()
        for i in range(0, len(text), 1000):
            index.extend(text[i:i + 1000])
        published = registry.snapshot()["counters"]
    assert counted == tracked
    for counter, value in tracked.items():
        assert published.get(f"construction.{counter}", 0) == value
    assert published["construction.chars"] == len(text)


def test_untracked_build_counts_nothing():
    index = SpineIndex(generate_dna(2000, seed=1))
    assert set(index.construction_counters.values()) == {0}


def test_construction_effort_row_is_pinned():
    text = genome("ECO", 3000)
    assert SpineIndex(text, track_stats=True).construction_counters == {
        "chain_hops": 16106, "rib_creations": 5610,
        "extrib_hops": 1422, "extrib_creations": 1462}
    result = effort_run(scale=3000, genomes=["ECO"])
    assert result.rows == [("ECO", 10500, 1.534, 0.534, 0.1354, 0.1392)]
