"""Optimized physical layout for SPINE (Section 5.1, Figure 5).

The reference :class:`~repro.core.index.SpineIndex` keeps Python dicts
for flexibility during online construction. This module compiles a built
index into the paper's optimized layout:

* **implicit vertebras** — only the 2-bit/5-bit character labels are
  stored (modeled as one byte-array here; the space model accounts the
  packed width);
* **Link Table (LT)** — one fixed-size entry per node: a 4-byte word
  holding either the link destination (rib-less nodes) or a pointer into
  a Rib Table, plus a 2-byte LEL;
* **Rib Tables (RT1..RTk)** — one table per downstream fanout class,
  each entry holding the displaced link destination and the node's rib
  slots ``(code, dest, PT)``;
* **extrib region** — chain elements ``(dest, PT)`` stored contiguously
  per parent rib (the PRT label is implied by the owning rib and is
  charged in the space model);
* **overflow table** — numeric labels that do not fit two bytes are
  stored out of line, with the in-row value acting as an overflow key
  (Section 5.1's robustness mechanism). PTs are kept full width here;
  the space model charges the ones that overflow.

The packed form is immutable and implements the same layer protocol as
the reference index, so the one query engine answers on it; equivalence
is asserted property-style in the tests. It is also the unit the
disk-resident implementation pages over (:mod:`repro.disk`).

For the link scan (Section 4) the packed form only decodes windows:
:meth:`PackedSpineIndex.link_candidates` selects the entries whose LEL
reaches the floor (overflowed LELs resolved) and gathers their
destinations in array passes; the engine's window loop
(:func:`repro.core.search.link_scan`) decides them against its target
bitmap, as on every layer.
"""

from __future__ import annotations

import contextlib
from itertools import chain

import numpy as np

from repro.core import search
from repro.core.index import SpineIndex
from repro.core.verbs import LayerVerbs
from repro.exceptions import ConstructionError, SearchError

_UNLOCKED = contextlib.nullcontext()

#: Sentinel stored in a two-byte label field when the true value lives
#: in the overflow table.
OVERFLOW_SENTINEL = 0xFFFF
_PTR_CLASS_SHIFT = 26
_PTR_ROW_MASK = (1 << _PTR_CLASS_SHIFT) - 1


class RibTable:
    """One fanout class of the optimized layout (RT_k of Figure 5)."""

    def __init__(self, fanout, ld):
        self.fanout = fanout
        #: Displaced link destinations: this class's slice of the
        #: index's ``_ld``, so the link scan gathers all classes at once.
        self.ld = ld
        rows = len(ld)
        self.codes = np.full((rows, fanout), 255, dtype=np.uint8)
        self.dests = np.zeros((rows, fanout), dtype=np.int32)
        self.pts = np.zeros((rows, fanout), dtype=np.uint32)
        # Extrib chain of each rib slot: ``ext_len`` elements from
        # ``ext_off`` in the index's flat ext arrays (length 0: none).
        self.ext_off = np.zeros((rows, fanout), dtype=np.int32)
        self.ext_len = np.zeros((rows, fanout), dtype=np.int32)

    @property
    def rows(self):
        """Number of rows in this fanout class."""
        return self.ld.shape[0]


class PackedSpineIndex(LayerVerbs):
    """Immutable, array-backed SPINE in the Section 5 layout.

    Build with :meth:`from_index`; query with the same search surface as
    the reference implementation — the engine in
    :mod:`repro.core.search` over this layer's storage accessors.
    """

    #: Prefix of this layer's metric and span names.
    NAME_PREFIX = "packed."

    def __init__(self):
        self.alphabet = None
        self._n = 0
        self._asize = 0
        self._codes = None          # bytes, entry 0 is a sentinel
        self._lt_ref = None         # int64: >=0 link dest, <0 RT pointer
        self._lt_lel = None         # uint16 with overflow sentinel
        self._lel_overflow = {}     # node -> true LEL
        self._tables = {}           # fanout class -> RibTable
        self._ld = None             # int32 RibTable.ld of every class
        self._ld_base = None        # fanout class -> its offset in _ld
        # Flat extrib region: the elements of one chain are contiguous,
        # thresholds ascending (located by RibTable.ext_off/ext_len).
        self._ext_dest = None       # int32 node ids
        self._ext_pt = None         # int32 (full width, see above)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    @classmethod
    def from_index(cls, index):
        """Compile a built :class:`SpineIndex` into the packed layout."""
        packed = cls()
        packed.alphabet = index.alphabet
        n = len(index)
        # Node ids must fit the RT pointer's row field (and so the int32
        # node-id columns).
        if (1 << _PTR_CLASS_SHIFT) <= n:
            raise ConstructionError("string too long for RT pointers")
        asize = index._asize
        packed._n = n
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

        # One pass over the rib dict into arrays, sorted by key: each
        # node's ribs are then contiguous and in code order.
        ribs = index._ribs
        m = len(ribs)
        keys = np.fromiter(ribs, dtype=np.int64, count=m)
        pairs = np.fromiter(chain.from_iterable(ribs.values()),
                            dtype=np.int64, count=2 * m).reshape(m, 2)
        by_key = keys.argsort()
        keys = keys[by_key]
        pairs = pairs[by_key]
        nodes, first, fanouts = np.unique(keys // asize, return_index=True,
                                          return_counts=True)
        # Rows ordered by (fanout, node): class by class, nodes ascending
        # within a class — the order of ``_ld``.
        by_row = np.lexsort((nodes, fanouts))
        nodes, first, fanouts = nodes[by_row], first[by_row], fanouts[by_row]
        classes, starts, sizes = np.unique(fanouts, return_index=True,
                                           return_counts=True)
        packed._ld = lt_ref[nodes].astype(np.int32)
        packed._ld_base = np.zeros(int(classes[-1]) + 1 if m else 1,
                                   dtype=np.int64)
        packed._ld_base[classes] = starts
        rows = np.arange(len(nodes)) - packed._ld_base[fanouts]
        lt_ref[nodes] = -((fanouts << _PTR_CLASS_SHIFT) | rows) - 1

        # Each RibTable's rib slots, as indexes into the sorted arrays.
        slot_ribs = [first[start:start + size, None] + np.arange(fanout)
                     for fanout, start, size
                     in zip(classes.tolist(), starts.tolist(),
                            sizes.tolist())]
        # The extrib region holds the chains in (class, row, slot) order.
        layout = (np.concatenate([s.ravel() for s in slot_ribs]) if m
                  else np.zeros(0, dtype=np.int64))
        chains = index._extchains
        owners = np.fromiter(chains, dtype=np.int64, count=len(chains))
        ext_len = np.zeros(m, dtype=np.int64)
        ext_len[keys.searchsorted(owners)] = np.fromiter(
            map(len, chains.values()), dtype=np.int64, count=len(chains))
        lengths = ext_len[layout]
        ext_off = np.zeros(m, dtype=np.int64)
        ext_off[layout] = np.where(lengths, lengths.cumsum() - lengths, 0)
        placed = keys[layout[lengths > 0]].tolist()
        total = int(lengths.sum())
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(
                map(chains.__getitem__, placed))),
            dtype=np.int64, count=2 * total).reshape(total, 2)

        for fanout, start, size, slots in zip(
                classes.tolist(), starts.tolist(), sizes.tolist(),
                slot_ribs):
            table = RibTable(fanout, packed._ld[start:start + size])
            table.codes[:] = keys[slots] % asize
            table.dests[:] = pairs[slots, 0]
            table.pts[:] = pairs[slots, 1]
            table.ext_off[:] = ext_off[slots]
            table.ext_len[:] = ext_len[slots]
            packed._tables[fanout] = table
        packed._lt_ref = lt_ref
        packed._ext_dest = flat[:, 0].astype(np.int32)
        packed._ext_pt = flat[:, 1].astype(np.int32)
        return packed

    # ------------------------------------------------------------------
    # accessors mirroring the reference index
    # ------------------------------------------------------------------

    def __len__(self):
        return self._n

    @property
    def node_count(self):
        """Backbone nodes including the root."""
        return self._n + 1

    @property
    def text(self):
        """The indexed string, decoded from the label region."""
        return self.alphabet.decode(self._codes[1:])

    def _decode_ptr(self, ref):
        ptr = -ref - 1
        return ptr >> _PTR_CLASS_SHIFT, ptr & _PTR_ROW_MASK

    def link(self, i):
        """``(dest, LEL)`` of node ``i`` (overflow-resolved)."""
        if not 1 <= i <= self._n:
            raise SearchError(f"node {i} out of range or is the root")
        ref = int(self._lt_ref[i])
        if ref >= 0:
            dest = ref
        else:
            fanout, row = self._decode_ptr(ref)
            dest = int(self._tables[fanout].ld[row])
        lel = int(self._lt_lel[i])
        if lel == OVERFLOW_SENTINEL:
            lel = self._lel_overflow.get(i, lel)
        return dest, lel

    #: Link-scan windows need not end on multiples of the stride.
    scan_aligned = False

    @property
    def scan_stride(self):
        """Link-scan window stride: :data:`repro.core.search.SCAN_WINDOW`."""
        return search.SCAN_WINDOW

    def link_candidates(self, start, stop, min_lel):
        """``(nodes, dests, LELs)`` int arrays of the nodes ``start <=
        j < stop`` whose LEL is at least ``min_lel``, ascending, or
        ``None`` — one window of :func:`repro.core.search.link_scan`.

        An entry at the overflow sentinel qualifies for any floor until
        its true LEL is read from the overflow table; displaced
        destinations take one gather from all classes' ``ld`` at once.
        """
        threshold = min(min_lel, OVERFLOW_SENTINEL)
        cand = (self._lt_lel[start:stop] >= threshold).nonzero()[0]
        if not cand.size:
            return None
        cand += start
        lel = self._lt_lel[cand]
        # Exactly the overflow table's nodes hold the sentinel.
        if self._lel_overflow and (lel == OVERFLOW_SENTINEL).any():
            over = lel == OVERFLOW_SENTINEL
            lel = lel.astype(np.int64)
            lel[over] = [self._lel_overflow[j] for j in cand[over].tolist()]
            keep = lel >= min_lel
            cand, lel = cand[keep], lel[keep]
            if not cand.size:
                return None
        dest = self._lt_ref[cand]
        displaced = (dest < 0).nonzero()[0]
        ptr = -dest[displaced] - 1
        dest[displaced] = self._ld[self._ld_base[ptr >> _PTR_CLASS_SHIFT]
                                   + (ptr & _PTR_ROW_MASK)]
        return cand, dest, lel

    def ribs_at(self, node):
        """Dict ``code -> (dest, PT)`` at ``node`` (mirrors reference)."""
        ref = int(self._lt_ref[node]) if node <= self._n else 0
        if ref >= 0:
            return {}
        fanout, row = self._decode_ptr(ref)
        table = self._tables[fanout]
        return {
            int(table.codes[row, s]): (int(table.dests[row, s]),
                                       int(table.pts[row, s]))
            for s in range(fanout)
        }

    def vertebra_label(self, i):
        """Character code of the vertebra into node ``i`` (1-based)."""
        if not 1 <= i <= self._n:
            raise SearchError(f"vertebra {i} out of range")
        return self._codes[i]

    def _slot(self, node, code):
        """``(table, row, slot)`` of the rib for ``code``, or None."""
        ref = int(self._lt_ref[node]) if 0 <= node <= self._n else 0
        if ref >= 0:
            return None
        fanout, row = self._decode_ptr(ref)
        table = self._tables[fanout]
        for slot, slot_code in enumerate(table.codes[row].tolist()):
            if slot_code == code:
                return table, row, slot
        return None

    def rib(self, node, code):
        """``(dest, PT)`` of the rib at ``node`` for ``code``, or None."""
        hit = self._slot(node, code)
        if hit is None:
            return None
        table, row, slot = hit
        return int(table.dests[row, slot]), int(table.pts[row, slot])

    def extrib_chain(self, node, code):
        """The extrib chain ``(dest, PT), ...`` of the rib at ``node``
        for ``code``, thresholds ascending (empty when the rib has never
        been extended)."""
        hit = self._slot(node, code)
        if hit is None:
            return ()
        table, row, slot = hit
        lo = int(table.ext_off[row, slot])
        hi = lo + int(table.ext_len[row, slot])
        return zip(self._ext_dest[lo:hi].tolist(),
                   self._ext_pt[lo:hi].tolist())

    # The label bytes and ``_n`` mean what they mean in the reference.
    vertebra_run = SpineIndex.vertebra_run

    # ------------------------------------------------------------------
    # queries (the verbs of repro.core.verbs run the engine)
    # ------------------------------------------------------------------

    def read_locked(self):
        """The layer protocol's read lock: a null context (the packed
        form is immutable)."""
        return _UNLOCKED

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------

    def measured_bytes(self):
        """Modeled byte usage of this index under the paper's field
        widths (not Python object overhead). Returns a breakdown dict;
        ``total / len`` is the bytes-per-character figure of Section 5."""
        from repro.core.layout import (
            POINTER_BYTES, SHORT_LABEL_BYTES, _label_bits)

        n = self._n
        bits = _label_bits(self._asize)
        lt = (n + 1) * (POINTER_BYTES + SHORT_LABEL_BYTES)
        cl = (n * bits + 7) // 8
        rt = 0
        rib_slots = 0
        for fanout, table in self._tables.items():
            rows = table.rows
            rib_slots += rows * fanout
            per_row = POINTER_BYTES \
                + fanout * (POINTER_BYTES + SHORT_LABEL_BYTES) \
                + (fanout * bits + 7) // 8
            rt += rows * per_row
        ext = len(self._ext_dest) * (POINTER_BYTES + 2 * SHORT_LABEL_BYTES)
        pt_overflow = int((self._ext_pt >= OVERFLOW_SENTINEL).sum()) + sum(
            int((table.pts >= OVERFLOW_SENTINEL).sum())
            for table in self._tables.values())
        overflow = (len(self._lel_overflow) + pt_overflow) * 4
        total = lt + cl + rt + ext + overflow
        return {
            "link_table": lt,
            "character_labels": cl,
            "rib_tables": rt,
            "extrib_region": ext,
            "overflow_table": overflow,
            "total": total,
            "bytes_per_char": total / n if n else float(total),
            "rib_slots": rib_slots,
        }

    def __repr__(self):
        return (f"PackedSpineIndex(n={self._n}, "
                f"classes={sorted(self._tables)}, "
                f"extribs={len(self._ext_dest)})")
