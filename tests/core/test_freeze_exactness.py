"""``PackedSpineIndex.from_index`` lays out exactly what it always did.

The freeze reads the rib and extrib dicts into arrays and fills every
Rib Table column with one gather. The per-rib loop it replaced is kept
here as the reference, and each test asserts the array-pass layout
equals it array for array: the packed layer's answers, space model and
link scan all read these arrays, so a faster freeze must be the same
freeze.
"""

import numpy as np
import pytest

from repro.alphabet import dna_alphabet, protein_alphabet
from repro.core.index import SpineIndex
from repro.core.packed import (
    _PTR_CLASS_SHIFT, OVERFLOW_SENTINEL, PackedSpineIndex, RibTable)
from repro.sequences import (generate_dna, generate_protein,
                             load_corpus_sequence)
from tests.conftest import PAPER_STRING


def reference_freeze(index):
    """The per-rib loop: group nodes by fanout in Python, then store
    every slot, chain element and pointer one numpy scalar at a time."""
    packed = PackedSpineIndex()
    packed.alphabet = index.alphabet
    asize = index._asize
    packed._n = len(index)
    packed._asize = asize
    packed._codes = bytes(index._codes)
    lt_ref = np.array(index._link_dest, dtype=np.int64)
    lel_full = np.array(index._link_lel, dtype=np.int64)
    packed._lt_lel = np.where(
        lel_full >= OVERFLOW_SENTINEL, OVERFLOW_SENTINEL, lel_full
    ).astype(np.uint16)
    packed._lel_overflow = {
        int(i): int(lel_full[i])
        for i in np.nonzero(lel_full >= OVERFLOW_SENTINEL)[0]
    }
    by_node = {}
    for key, (dest, pt) in index._ribs.items():
        node, code = divmod(key, asize)
        by_node.setdefault(node, []).append((code, dest, pt))
    class_members = {}
    for node, slots in by_node.items():
        class_members.setdefault(len(slots), []).append(node)
    ext_dest = []
    ext_pt = []
    packed._ld = np.zeros(len(by_node), dtype=np.int32)
    packed._ld_base = np.zeros(max(class_members, default=0) + 1,
                               dtype=np.int64)
    offset = 0
    for fanout, nodes in sorted(class_members.items()):
        nodes.sort()
        packed._ld_base[fanout] = offset
        table = RibTable(fanout, packed._ld[offset:offset + len(nodes)])
        offset += len(nodes)
        packed._tables[fanout] = table
        for row, node in enumerate(nodes):
            table.ld[row] = lt_ref[node]
            ptr = (fanout << _PTR_CLASS_SHIFT) | row
            lt_ref[node] = -ptr - 1
            for slot, (code, dest, pt) in enumerate(sorted(by_node[node])):
                table.codes[row, slot] = code
                table.dests[row, slot] = dest
                table.pts[row, slot] = pt
                chain = index._extchains.get(node * asize + code)
                if chain:
                    table.ext_off[row, slot] = len(ext_dest)
                    table.ext_len[row, slot] = len(chain)
                    for e_dest, e_pt in chain:
                        ext_dest.append(e_dest)
                        ext_pt.append(e_pt)
    packed._lt_ref = lt_ref
    packed._ext_dest = np.array(ext_dest, dtype=np.int32)
    packed._ext_pt = np.array(ext_pt, dtype=np.int32)
    return packed


def assert_same_layout(got, want):
    assert got._n == want._n
    assert got._asize == want._asize
    assert got._codes == want._codes
    assert got._lel_overflow == want._lel_overflow
    for name in ("_lt_ref", "_lt_lel", "_ld", "_ld_base", "_ext_dest",
                 "_ext_pt"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert list(got._tables) == list(want._tables)
    for fanout, table in got._tables.items():
        ref = want._tables[fanout]
        assert table.fanout == ref.fanout == fanout
        for column in ("ld", "codes", "dests", "pts", "ext_off",
                       "ext_len"):
            a, b = getattr(table, column), getattr(ref, column)
            assert a.dtype == b.dtype, (fanout, column)
            np.testing.assert_array_equal(a, b, err_msg=(fanout, column))
        # The link scan gathers displaced destinations from ``_ld``
        # directly: each table's ``ld`` must be a view of it.
        if table.rows:
            assert np.shares_memory(table.ld, got._ld)


def hc21_prefix(chars):
    # Scale 2000 realizes 57k characters of the HC21 pseudo-genome.
    return load_corpus_sequence("HC21", scale=2000)[:chars]


TEXTS = {
    "empty": ("", dna_alphabet()),
    "one-char": ("g", dna_alphabet()),
    "paper": (PAPER_STRING, None),
    "binary": ("".join("ab"[b] for b in np.random.default_rng(5)
                       .integers(0, 2, 3000).tolist()), None),
    "protein": (generate_protein(4000, seed=9), protein_alphabet()),
    "hc21-50k": (hc21_prefix(50_000), dna_alphabet()),
}


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_freeze_equals_reference(name):
    text, alphabet = TEXTS[name]
    index = SpineIndex(text, alphabet=alphabet)
    assert_same_layout(PackedSpineIndex.from_index(index),
                       reference_freeze(index))


def test_freeze_with_lel_and_pt_overflow():
    # A 70k-char repeat pushes LELs and PTs past two bytes, so the
    # overflow table and the full-width PT columns are both exercised.
    x = generate_dna(70000, seed=3)
    index = SpineIndex(x + "T" + x + "G" + x, alphabet=dna_alphabet())
    got = PackedSpineIndex.from_index(index)
    assert got._lel_overflow
    assert any((table.pts >= OVERFLOW_SENTINEL).any()
               for table in got._tables.values())
    assert_same_layout(got, reference_freeze(index))


def test_freeze_of_a_prefix_index():
    # prefix_index drops chains whose rib postdates the prefix: the
    # freeze must still place every remaining chain.
    index = SpineIndex(hc21_prefix(6000), alphabet=dna_alphabet())
    prefix = index.prefix_index(4321)
    assert_same_layout(PackedSpineIndex.from_index(prefix),
                       reference_freeze(prefix))
