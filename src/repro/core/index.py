"""The SPINE index: online construction and basic queries.

Structure (paper Section 2). For a data string of length ``n`` the index
has exactly ``n + 1`` backbone nodes, numbered 0 (root) to ``n`` (tail);
node ``i`` sits below the ``i``-th character. Edges:

* **vertebra** ``i-1 -> i`` with character label ``S[i]`` — implicit: the
  destination of node ``i``'s vertebra is always ``i + 1``, so only the
  label array is stored (the "implicit vertebra edge" optimization of
  Section 5.1, which also means the raw string need not be kept).
* **link** of node ``i`` — upstream edge ``(dest, LEL)``: the longest
  early-terminating suffix of the backbone string above ``i`` has length
  ``LEL`` and its *first* occurrence ends at node ``dest``. ``LEL == 0``
  links to the root.
* **rib** at node ``v`` for character ``c`` — ``(dest, PT)``: a valid
  path of length ``<= PT`` arriving at ``v`` may continue with ``c`` to
  ``dest``.
* **extrib** — ``(dest, PT)`` elements chained off a parent rib; a path
  of length ``L`` that failed the rib's threshold continues to the
  destination of the first chain element with ``PT >= L``. Every element
  carries the paper's PRT (= parent rib's PT) label.

  *Deviation from the paper's physical scheme*: Section 2.6 stores at
  most one extrib per node and interleaves the chains of different
  parent ribs through shared nodes, relying on PRT alone to tell them
  apart. On random binary strings this is ambiguous — two ribs with
  equal PT values can have interleaved chains, and a traversal for one
  rib can pick up an element belonging to the other, producing false
  positives (observed empirically; see tests/core/test_extrib_chains.py).
  We therefore key each chain by its parent rib. Thresholds, label
  values, element counts and the one-element-per-node space accounting
  are unchanged; only the lookup identity is tightened.

Construction (paper Section 3, Figure 4) appends one character at a time:
walk the link chain of the old tail, planting ribs at chain nodes that
lack an edge for the new character, and stop at the first node that
already has one (vertebra, passing rib, or extrib handling), which also
determines the new tail's link.

The implementation keeps the numeric arrays in compact ``array`` storage
and the sparse rib/extrib maps in dicts keyed by ``node * alphabet_size
+ code`` — the reference in-memory form. The Section 5 physical layout
(LT/RT tables, two-byte labels, overflow table) lives in
:mod:`repro.core.packed`.
Queries run in :mod:`repro.core.search`; for the link scan this layer
only decodes windows (:meth:`SpineIndex.link_candidates`).
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from repro.alphabet import alphabet_for, dna_alphabet
from repro.core import search
from repro.core.verbs import LayerVerbs
from repro.exceptions import ConstructionError, SearchError
from repro.obs import get_registry

_UNLOCKED = contextlib.nullcontext()


class SpineIndex(LayerVerbs):
    """Horizontally-compacted trie index over a single string.

    The reference layer of the query engine's layer protocol
    (``docs/api.md``); its queries run in :mod:`repro.core.search`.

    Parameters
    ----------
    text:
        Initial data string (may be empty; the index is online — use
        :meth:`extend` / :meth:`append_char` to grow it later).
    alphabet:
        The :class:`repro.alphabet.Alphabet` to code characters with.
        Inferred from ``text`` when omitted.

    Examples
    --------
    >>> idx = SpineIndex("aaccacaaca")
    >>> idx.contains("caca")
    True
    >>> idx.find_all("ac")
    [1, 4, 7]
    """

    #: Prefix of this layer's metric and span names.
    NAME_PREFIX = ""

    def __init__(self, text="", alphabet=None, track_stats=False):
        if alphabet is None:
            # The canonical DNA factory (case-insensitive), so an empty
            # SpineIndex() and SpineIndex(alphabet=dna_alphabet()) agree
            # on lowercase input.
            alphabet = alphabet_for(text) if text else dna_alphabet()
        self.alphabet = alphabet
        self._asize = alphabet.total_size
        # codes[i] = character label of the vertebra into node i (1-based);
        # codes[0] is a padding sentinel so node ids index directly.
        self._codes = bytearray(b"\xff")
        # link arrays, indexed by node id; entry 0 (root) is a sentinel.
        self._link_dest = array("i", [0])
        self._link_lel = array("i", [0])
        # ribs: (node * asize + code) -> (dest, pt)
        self._ribs = {}
        # extrib chains: rib key -> list of (dest, pt), thresholds
        # strictly ascending (see the deviation note above).
        self._extchains = {}
        self._n = 0
        # An enabled global metrics registry implies effort tracking:
        # the obs subsystem generalizes the ad-hoc counters below.
        self._track_stats = track_stats or get_registry().enabled
        #: Construction-effort counters (link-chain hops, rib creations,
        #: extrib-chain hops); populated when ``track_stats`` is true or
        #: metrics are enabled (:mod:`repro.obs`).
        self.construction_counters = {
            "chain_hops": 0, "rib_creations": 0,
            "extrib_hops": 0, "extrib_creations": 0,
        }
        if text:
            self.extend(text)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def extend(self, text):
        """Append ``text`` to the indexed string (online growth).

        The whole chunk is encoded before the first append, so a
        character outside the alphabet rejects the call and leaves the
        index unchanged.

        When metrics are enabled (:mod:`repro.obs`), each call reports
        the appended character count, the construction-effort deltas and
        the elapsed time into the global registry — one bulk publish per
        call, nothing per character.
        """
        registry = get_registry()
        observing = registry.enabled
        if observing:
            before = dict(self.construction_counters)
            started = time.perf_counter()
        # Alphabet codes are in range by construction; bytes keep the
        # encoded chunk small while it is appended.
        self._append_codes(bytes(self.alphabet.encode(text)))
        if observing:
            elapsed = time.perf_counter() - started
            registry.timer("construction.extend.seconds").observe(elapsed)
            registry.counter("construction.chars").inc(len(text))
            counters = self.construction_counters
            for name, value in counters.items():
                registry.counter(f"construction.{name}").inc(
                    value - before[name])

    def append_char(self, ch):
        """Append a single character."""
        self.append_code(self.alphabet.encode_char(ch))

    def append_code(self, c):
        """Append one character given as an integer alphabet code."""
        if not 0 <= c < self._asize:
            raise ConstructionError(
                f"code {c} out of range for alphabet {self.alphabet.name!r}"
            )
        self._append_codes(bytes((c,)))

    def _append_codes(self, codes):
        """The paper's APPEND (Figure 4) for each code of ``codes``
        (bytes, in range): one new backbone node, one vertebra, the
        ribs/extribs needed to extend all early-terminating suffixes,
        and the new tail's link.

        One loop per chunk: the effort counts are kept in locals and
        published once at the end (when ``track_stats`` is on).
        """
        labels = self._codes
        link_dest = self._link_dest
        link_lel = self._link_lel
        ribs = self._ribs
        asize = self._asize
        hops = created = 0
        n = self._n
        for c in codes:
            labels.append(c)
            new = n + 1
            if n:
                # Walk the link chain starting from the old tail's link.
                v = link_dest[n]
                lel = link_lel[n]
                while True:
                    hops += 1
                    if labels[v + 1] == c:
                        # CASE 1: vertebra with the new character at v.
                        link_dest.append(v + 1)
                        link_lel.append(lel + 1)
                        break
                    key = v * asize + c
                    rib = ribs.get(key)
                    if rib is not None:
                        d, pt = rib
                        if pt >= lel:
                            # CASE 2: rib with sufficient threshold.
                            link_dest.append(d)
                            link_lel.append(lel + 1)
                            break
                        # CASE 4: rib fails the threshold -> extribs.
                        self._handle_extribs(key, d, pt, lel, new)
                        break
                    # CASE 3: no edge for c here; plant a rib to the tail.
                    ribs[key] = (new, lel)
                    created += 1
                    if v == 0:
                        # Chain exhausted at the root: null-suffix link.
                        link_dest.append(0)
                        link_lel.append(0)
                        break
                    lel = link_lel[v]
                    v = link_dest[v]
            else:
                # First character: link straight to the root (Section 3).
                link_dest.append(0)
                link_lel.append(0)
            # ``self._n`` is published only once the new node is
            # complete (vertebra, ribs/extribs and its link all
            # appended): a concurrent snapshot-bounded reader
            # (repro.serve) that observes ``len(index) == new`` must
            # find node ``new`` fully formed. Entries planted
            # mid-append always reference ``new`` and are invisible to
            # readers bounded at ``n`` or below.
            self._n = n = new
        if self._track_stats:
            counters = self.construction_counters
            counters["chain_hops"] += hops
            counters["rib_creations"] += created

    def _handle_extribs(self, rib_key, d, rib_pt, lel, new):
        """CASE 4 of Figure 4: the rib's PT is below the required length.

        Walk the rib's extrib chain (thresholds strictly ascending). If
        an element covers the required length, link the new tail to its
        destination; otherwise append a fresh extrib to the chain's end
        pointing to the new tail, and link the new tail to the
        destination of the last chain element (the extension of the
        next-shorter recorded suffix; the rib itself when the chain was
        empty).
        """
        link_dest = self._link_dest
        link_lel = self._link_lel
        track = self._track_stats
        chain = self._extchains.get(rib_key)
        if chain is None:
            chain = []
            self._extchains[rib_key] = chain
        # The parent rib acts as the chain's zeroth element.
        last_dest = d
        last_pt = rib_pt
        for e_dest, e_pt in chain:
            if track:
                self.construction_counters["extrib_hops"] += 1
            if e_pt >= lel:
                # An existing extrib already records this extension.
                link_dest.append(e_dest)
                link_lel.append(lel + 1)
                return
            last_dest = e_dest
            last_pt = e_pt
        # Chain exhausted: extend the rib with a new extrib to the tail.
        chain.append((new, lel))
        link_dest.append(last_dest)
        link_lel.append(last_pt + 1)
        if track:
            self.construction_counters["extrib_creations"] += 1

    # ------------------------------------------------------------------
    # primitive accessors
    # ------------------------------------------------------------------

    def __len__(self):
        """Length of the indexed string (= number of non-root nodes)."""
        return self._n

    @property
    def node_count(self):
        """Backbone nodes including the root: always ``len + 1``."""
        return self._n + 1

    @property
    def text(self):
        """The indexed string, reconstructed from the vertebra labels.

        SPINE keeps the data string implicitly (one vertebra per
        character), so the original input is recoverable — a property
        suffix trees do not share (Section 1.1).
        """
        return self.alphabet.decode(self._codes[1:])

    def vertebra_label(self, i):
        """Code of the vertebra into node ``i`` (the i-th character)."""
        if not 1 <= i <= self._n:
            raise SearchError(f"node {i} has no incoming vertebra")
        return self._codes[i]

    def link(self, i):
        """``(dest, LEL)`` of node ``i``'s upstream link."""
        if not 1 <= i <= self._n:
            raise SearchError(f"node {i} out of range or is the root")
        return self._link_dest[i], self._link_lel[i]

    def rib(self, node, code):
        """``(dest, PT)`` of the rib at ``node`` for ``code``, or None."""
        return self._ribs.get(node * self._asize + code)

    def extrib_chain(self, node, code):
        """The extrib chain ``(dest, PT), ...`` of the rib at ``node``
        for ``code``, thresholds ascending (empty when the rib has never
        been extended). Read-only: the index's own chain list."""
        return self._extchains.get(node * self._asize + code, ())

    def vertebra_run(self, node, codes, i):
        """How many leading ``codes[i:]`` (``i < len(codes)``) equal
        the vertebra labels after ``node`` (0 at the tail)."""
        labels = self._codes
        if node >= self._n or labels[node + 1] != codes[i]:
            # Most calls of a matching-statistics walk end here.
            return 0
        shift = node + 1 - i
        stop = i + self._n - node
        if stop > len(codes):
            stop = len(codes)
        k = i + 1
        while k < stop and labels[k + shift] == codes[k]:
            k += 1
        return k - i

    def extrib_elements(self):
        """Every extrib as ``(located_at, dest, PT, PRT)``.

        ``located_at`` reconstructs the paper's physical placement
        (Section 2.6): a new extrib is stored at the end of the physical
        chain hanging off the parent rib's destination, where chains of
        different ribs terminating at the same node interleave. Under
        that placement every node hosts at most one extrib (one extrib
        is created per appended character, always at a previously
        unoccupied chain end). The replay below re-enacts creation order
        — an element's destination *is* its creation time.
        """
        events = []
        for key, chain in self._extchains.items():
            rib_dest = self._ribs[key][0]
            rib_pt = self._ribs[key][1]
            for dest, pt in chain:
                events.append((dest, rib_dest, pt, rib_pt))
        events.sort()
        occupied = {}  # node -> destination of the extrib stored there
        out = []
        for dest, rib_dest, pt, rib_pt in events:
            x = rib_dest
            while x in occupied:
                x = occupied[x]
            occupied[x] = dest
            out.append((x, dest, pt, rib_pt))
        return out

    @property
    def extrib_count(self):
        """Total number of extrib elements across all chains."""
        return sum(len(chain) for chain in self._extchains.values())

    #: Link-scan windows need not end on multiples of the stride.
    scan_aligned = False

    @property
    def scan_stride(self):
        """Link-scan window stride: :data:`repro.core.search.SCAN_WINDOW`."""
        return search.SCAN_WINDOW

    def link_candidates(self, start, stop, min_lel):
        """``(nodes, dests, LELs)`` int arrays of the nodes ``start <=
        j < stop`` with ``LEL >= min_lel``, ascending, or ``None`` — one
        window of :func:`repro.core.search.link_scan`. The slices are
        copies, so a concurrent :meth:`extend` can still grow the
        link arrays."""
        lel = np.frombuffer(self._link_lel[start:stop], dtype=np.intc)
        cand = (lel >= min_lel).nonzero()[0]
        if not cand.size:
            return None
        dest = np.frombuffer(self._link_dest[start:stop], dtype=np.intc)
        return cand + start, dest[cand], lel[cand]

    def ribs_at(self, node):
        """Dict ``code -> (dest, PT)`` of all ribs at ``node``."""
        asize = self._asize
        base = node * asize
        out = {}
        for code in range(asize):
            entry = self._ribs.get(base + code)
            if entry is not None:
                out[code] = entry
        return out

    def edge_counts(self):
        """Number of each edge type (Figure 3 accounting)."""
        return {
            "vertebras": self._n,
            "links": self._n,
            "ribs": len(self._ribs),
            "extribs": self.extrib_count,
        }

    # ------------------------------------------------------------------
    # queries (the verbs of repro.core.verbs run the engine)
    # ------------------------------------------------------------------

    def read_locked(self):
        """The layer protocol's read lock: a null context, because an
        in-memory index is consistent for any snapshot-bounded reader
        (see :meth:`_append_codes`)."""
        return _UNLOCKED

    # ------------------------------------------------------------------
    # prefix partitioning (Section 2.7)
    # ------------------------------------------------------------------

    def prefix_index(self, k):
        """The SPINE index of the first ``k`` characters.

        Because SPINE grows only at the tail, the index of a prefix is
        literally the initial fragment of the full index: keep nodes
        ``0..k`` and drop every rib/extrib whose destination lies beyond
        ``k`` (such edges were created after character ``k`` arrived).
        """
        if not 0 <= k <= self._n:
            raise SearchError(f"prefix length {k} out of range 0..{self._n}")
        clone = SpineIndex(alphabet=self.alphabet)
        clone._codes = self._codes[:k + 1]
        clone._link_dest = self._link_dest[:k + 1]
        clone._link_lel = self._link_lel[:k + 1]
        clone._ribs = {key: entry for key, entry in self._ribs.items()
                       if entry[0] <= k}
        clone._extchains = {}
        for key, chain in self._extchains.items():
            if key not in clone._ribs:
                continue
            kept = [(dest, pt) for dest, pt in chain if dest <= k]
            if kept:
                clone._extchains[key] = kept
        clone._n = k
        return clone

    def structurally_equal(self, other):
        """Exact structural equality (used by prefix-partition tests)."""
        return (
            self._n == other._n
            and self._codes == other._codes
            and self._link_dest == other._link_dest
            and self._link_lel == other._link_lel
            and self._ribs == other._ribs
            and self._extchains == other._extchains
        )

    def __repr__(self):
        return (f"SpineIndex(n={self._n}, alphabet={self.alphabet.name!r}, "
                f"ribs={len(self._ribs)}, extribs={self.extrib_count})")
