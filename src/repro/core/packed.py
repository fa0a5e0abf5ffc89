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

The link scan (:meth:`PackedSpineIndex.iter_link_entries`, Section 4)
is vectorized. It selects the candidates (LEL at or above the floor)
and gathers their destinations in array passes, then hands them to
:func:`repro.core.search.reaching_entries` — the pointer-doubling
closure the memory and disk scans share — which keeps only the
candidates whose link chain reaches a target and re-tests those in
ascending order, so the yielded sequence is the per-entry scan's.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.core import matching, search
from repro.core.index import SpineIndex
from repro.exceptions import ConstructionError, SearchError

_UNLOCKED = contextlib.nullcontext()

#: Sentinel stored in a two-byte label field when the true value lives
#: in the overflow table.
OVERFLOW_SENTINEL = 0xFFFF
_PTR_CLASS_SHIFT = 26
_PTR_ROW_MASK = (1 << _PTR_CLASS_SHIFT) - 1


class RibTable:
    """One fanout class of the optimized layout (RT_k of Figure 5)."""

    def __init__(self, fanout, rows):
        self.fanout = fanout
        self.ld = np.zeros(rows, dtype=np.int32)
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


class PackedSpineIndex:
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

        # Group nodes by rib fanout.
        by_node = {}
        for key, (dest, pt) in index._ribs.items():
            node, code = divmod(key, asize)
            by_node.setdefault(node, []).append((code, dest, pt))
        class_members = {}
        for node, slots in by_node.items():
            class_members.setdefault(len(slots), []).append(node)
        ext_dest = []
        ext_pt = []
        for fanout, nodes in sorted(class_members.items()):
            nodes.sort()
            table = RibTable(fanout, len(nodes))
            packed._tables[fanout] = table
            for row, node in enumerate(nodes):
                table.ld[row] = lt_ref[node]
                ptr = (fanout << _PTR_CLASS_SHIFT) | row
                lt_ref[node] = -ptr - 1
                for slot, (code, dest, pt) in enumerate(
                        sorted(by_node[node])):
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

    def iter_link_entries(self, lo, hi, min_lel, targets):
        """Yield ``(j, dest, LEL)`` for nodes ``lo < j <= hi`` with
        ``LEL >= min_lel`` and ``dest`` in ``targets`` (the shared
        downstream-scan primitive; ``targets`` may grow between
        yields, but only by nodes this generator has yielded).

        Candidates ``C`` are the entries whose stored LEL reaches the
        floor (entries at the overflow sentinel qualify for any floor
        and are resolved through the overflow table before being
        yielded). Their destinations are gathered in one pass, and
        pointer doubling over the links inside ``C`` keeps only the
        candidates whose link chain reaches a current target — a
        superset of the entries a growing ``targets`` can accept.
        Python then re-tests ``dest in targets`` over that superset
        alone, in ascending order, so the yielded sequence equals a
        per-entry scan of ``C``.
        """
        n = min(hi, self._n)
        if lo >= n:
            return
        threshold = min(min_lel, OVERFLOW_SENTINEL)
        # Scan only the requested (lo, n] slice so windowed sweeps
        # (cancellation chunking) stay linear in the total range.
        cand = (self._lt_lel[lo + 1:n + 1] >= threshold).nonzero()[0]
        if not cand.size:
            return
        cand += lo + 1
        dest = self._lt_ref[cand]
        displaced = dest < 0
        ptr = -dest[displaced] - 1
        fanout = ptr >> _PTR_CLASS_SHIFT
        row = ptr & _PTR_ROW_MASK
        for f, table in self._tables.items():
            sel = fanout == f
            ptr[sel] = table.ld[row[sel]]
        dest[displaced] = ptr
        lel = self._lt_lel[cand]
        for j, d, length in search.reaching_entries(cand, dest, lel,
                                                    targets):
            if length == OVERFLOW_SENTINEL:
                length = self._lel_overflow.get(j, length)
                if length < min_lel:
                    continue
            yield j, d, length

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
    # queries (the engine in repro.core.search / repro.core.matching)
    # ------------------------------------------------------------------

    def read_locked(self):
        """The layer protocol's read lock: a null context (the packed
        form is immutable)."""
        return _UNLOCKED

    def contains(self, pattern):
        """True iff ``pattern`` occurs in the indexed string."""
        return search.contains(self, pattern)

    def find_first(self, pattern):
        """0-indexed start of the first occurrence, or ``None``."""
        return search.find_first(self, pattern)

    def find_all(self, pattern):
        """Sorted 0-indexed starts of all occurrences."""
        return search.find_all(self, pattern)

    def count(self, pattern):
        """Number of (overlapping) occurrences of ``pattern``."""
        return search.count(self, pattern)

    def matching_statistics(self, query):
        """Matching statistics against the packed layout."""
        return matching.matching_statistics(self, query)

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
