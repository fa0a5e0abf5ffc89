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
"""

from __future__ import annotations

import contextlib
import time
from array import array

from repro.alphabet import alphabet_for, dna_alphabet
from repro.core import search
from repro.exceptions import ConstructionError, SearchError
from repro.obs import get_registry

_UNLOCKED = contextlib.nullcontext()


class SpineIndex:
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
        append = self.append_code
        encode = self.alphabet.encode_char
        for ch in text:
            append(encode(ch))
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
        """Append one character given as an integer alphabet code.

        This is the paper's APPEND operation (Figure 4): one new backbone
        node, one vertebra, the ribs/extribs needed to extend all
        early-terminating suffixes, and the new tail's link.
        """
        if not 0 <= c < self._asize:
            raise ConstructionError(
                f"code {c} out of range for alphabet {self.alphabet.name!r}"
            )
        codes = self._codes
        link_dest = self._link_dest
        link_lel = self._link_lel
        ribs = self._ribs
        asize = self._asize

        n = self._n
        codes.append(c)
        new = n + 1
        # ``self._n`` is published only once the new node is complete
        # (vertebra, ribs/extribs and its link all appended): a
        # concurrent snapshot-bounded reader (repro.serve) that
        # observes ``len(index) == new`` must find node ``new`` fully
        # formed. Entries planted mid-append always reference ``new``
        # and are invisible to readers bounded at ``n`` or below.

        if n == 0:
            # First character: link straight to the root (Section 3).
            link_dest.append(0)
            link_lel.append(0)
            self._n = new
            return

        # Walk the link chain starting from the old tail's link.
        v = link_dest[n]
        lel = link_lel[n]
        if self._track_stats:
            self._append_tail_tracked(c, v, lel, new)
            self._n = new
            return
        while True:
            if codes[v + 1] == c:
                # CASE 1: vertebra with the new character exists at v.
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
                # CASE 4: rib fails the threshold test -> extrib chain.
                self._handle_extribs(key, d, pt, lel, new)
                break
            # CASE 3: no edge for c here; plant a rib to the new tail.
            ribs[v * asize + c] = (new, lel)
            if v == 0:
                # Chain exhausted at the root: null-suffix link.
                link_dest.append(0)
                link_lel.append(0)
                break
            lel = link_lel[v]
            v = link_dest[v]
        self._n = new

    def _append_tail_tracked(self, c, v, lel, new):
        """Same walk as :meth:`append_code`, with effort counters."""
        codes = self._codes
        link_dest = self._link_dest
        link_lel = self._link_lel
        ribs = self._ribs
        asize = self._asize
        counters = self.construction_counters
        while True:
            counters["chain_hops"] += 1
            if codes[v + 1] == c:
                link_dest.append(v + 1)
                link_lel.append(lel + 1)
                return
            key = v * asize + c
            rib = ribs.get(key)
            if rib is not None:
                d, pt = rib
                if pt >= lel:
                    link_dest.append(d)
                    link_lel.append(lel + 1)
                    return
                self._handle_extribs(key, d, pt, lel, new)
                return
            ribs[v * asize + c] = (new, lel)
            counters["rib_creations"] += 1
            if v == 0:
                link_dest.append(0)
                link_lel.append(0)
                return
            lel = link_lel[v]
            v = link_dest[v]

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
        """The extrib chain ``[(dest, PT), ...]`` of the rib at ``node``
        for ``code`` (empty when the rib has never been extended)."""
        return list(self._extchains.get(node * self._asize + code, ()))

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

    def iter_link_entries(self, lo, hi, min_lel, targets):
        """Yield ``(j, dest, LEL)`` for backbone nodes ``lo < j <= hi``
        whose LEL is at least ``min_lel`` and whose link destination is
        in ``targets`` — the downstream-scan primitive of
        :class:`~repro.core.search.OccurrenceScanner`.

        Membership is tested lazily, entry by entry, so the caller may
        grow ``targets`` between yields.
        """
        link_dest = self._link_dest
        link_lel = self._link_lel
        for j in range(lo + 1, min(hi, self._n) + 1):
            if link_lel[j] >= min_lel and link_dest[j] in targets:
                yield j, link_dest[j], link_lel[j]

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
    # traversal primitive
    # ------------------------------------------------------------------

    def step(self, node, pathlength, code, _span=None):
        """One forward move of a valid path: from ``node`` after having
        matched ``pathlength`` characters, consume ``code``.

        Returns the destination node, or ``None`` when no valid edge
        exists (Section 4 traversal rules: vertebras are always
        traversable; a rib needs ``pathlength <= PT``; a failed rib falls
        through to the first extrib-chain element with matching PRT and
        ``PT >= pathlength``). ``_span`` is an active trace span
        (:mod:`repro.obs.trace`); each edge decision is recorded on it.
        """
        if node < self._n and self._codes[node + 1] == code:
            if _span is not None:
                _span.vertebra(node)
            return node + 1
        key = node * self._asize + code
        rib = self._ribs.get(key)
        if rib is None:
            if _span is not None:
                _span.event("no-edge", node=node, code=code,
                            pathlength=pathlength)
            return None
        d, pt = rib
        if _span is not None:
            _span.event("enter-rib", node=node, code=code, dest=d,
                        pt=pt, pathlength=pathlength)
        if pathlength <= pt:
            if _span is not None:
                _span.event("pt-accept", node=node, pt=pt,
                            pathlength=pathlength, dest=d)
            return d
        if _span is not None:
            _span.event("pt-reject", node=node, pt=pt,
                        pathlength=pathlength)
        for e_dest, e_pt in self._extchains.get(key, ()):
            taken = e_pt >= pathlength
            if _span is not None:
                _span.event("extrib-fallthrough", node=node, pt=e_pt,
                            pathlength=pathlength, dest=e_dest,
                            taken=taken)
            if taken:
                return e_dest
        if _span is not None:
            _span.event("no-edge", node=node, code=code,
                        pathlength=pathlength, exhausted="extribs")
        return None

    # ------------------------------------------------------------------
    # queries (the engine in repro.core.search / repro.core.matching)
    # ------------------------------------------------------------------

    def read_locked(self):
        """The layer protocol's read lock: a null context, because an
        in-memory index is consistent for any snapshot-bounded reader
        (see :meth:`append_code`)."""
        return _UNLOCKED

    def contains(self, pattern):
        """True iff ``pattern`` is a substring of the indexed string."""
        return search.contains(self, pattern)

    def find_first(self, pattern):
        """0-indexed start of the first occurrence, or ``None``."""
        return search.find_first(self, pattern)

    def find_all(self, pattern):
        """Sorted 0-indexed starts of every occurrence."""
        return search.find_all(self, pattern)

    def count(self, pattern):
        """Number of (possibly overlapping) occurrences."""
        return search.count(self, pattern)

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
