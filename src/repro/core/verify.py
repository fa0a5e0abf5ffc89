"""Structural invariant checking for SPINE indexes — layer-generic.

``verify_index`` raises :class:`~repro.exceptions.VerificationError` on
the first violated invariant and works on every traversal layer:

* the in-memory :class:`~repro.core.index.SpineIndex` (a fast path over
  its private arrays),
* the packed :class:`~repro.core.packed.PackedSpineIndex` and the
  page-resident :class:`~repro.disk.spine_disk.DiskSpineIndex`, both
  walked through their public node accessors (``link``, ``ribs_at``,
  ``extrib_chain``, ``vertebra_label``),
* the :class:`~repro.shard.ShardedSpineIndex`, which verifies every
  shard plus the partition bookkeeping (contiguous owned spans, the
  ``local + pending == owned + overlap`` drain invariant, and the
  stitched text).

Any other object raises a structured ``VerificationError`` naming the
unsupported layer. The cheap checks are linear and safe to run on large
indexes; ``deep=True`` adds quadratic oracle checks (brute-force LEL
recomputation and exhaustive valid-path-equals-substring testing) meant
for small strings in tests.
"""

from __future__ import annotations

from repro.core.search import find_first_end
from repro.exceptions import VerificationError


def _fail(message, layer=None, invariant=None):
    raise VerificationError(message, layer=layer, invariant=invariant)


def classify_layer(index):
    """Layer name of ``index`` (``memory``/``packed``/``disk``/
    ``sharded``), or ``None`` when it is not a verifiable SPINE layer."""
    from repro.core.index import SpineIndex
    from repro.core.packed import PackedSpineIndex

    if isinstance(index, SpineIndex):
        return "memory"
    if isinstance(index, PackedSpineIndex):
        return "packed"
    from repro.disk.spine_disk import DiskSpineIndex

    if isinstance(index, DiskSpineIndex):
        return "disk"
    from repro.shard.index import ShardedSpineIndex

    if isinstance(index, ShardedSpineIndex):
        return "sharded"
    return None


def verify_index(index, deep=False, max_deep_length=400):
    """Check the structural invariants of a SPINE index on any layer.

    Linear invariants (always checked):

    * array sizes consistent with the node count;
    * every link points strictly upstream, ``LEL == 0`` iff the link
      targets the root, ``LEL(i) <= LEL(i-1) + 1``, ``LEL(i) < i``,
      ``LEL(i) <= dest(i)`` (the link lands on the first occurrence);
    * every rib points strictly downstream with ``0 <= PT <= source``,
      and never duplicates the source's vertebra label;
    * every extrib points strictly downstream with ``PRT < PT``; along
      any chain, thresholds strictly increase starting above the parent
      rib's PT, and the paper's one-extrib-per-node physical placement
      is collision-free.

    Deep invariants (``deep=True``, quadratic — small inputs only):

    * ``LEL(i)`` equals the brute-force longest early-terminating suffix
      length and the link destination is that suffix's first-occurrence
      end;
    * valid paths exist exactly for the substrings (no false positives:
      every substring extended by one non-continuing character fails).

    Returns ``True`` so it can sit inside ``assert``.
    """
    layer = classify_layer(index)
    if layer is None:
        raise VerificationError(
            f"verification does not support {type(index).__name__!r}; "
            "expected a memory (SpineIndex), packed (PackedSpineIndex), "
            "disk (DiskSpineIndex) or sharded (ShardedSpineIndex) layer",
            layer=type(index).__name__, invariant="unsupported-layer")
    if layer == "sharded":
        return _verify_sharded(index, deep=deep,
                               max_deep_length=max_deep_length)
    if layer == "memory":
        _verify_linear_memory(index)
    else:
        _verify_linear_generic(index, layer)
    if deep:
        n = len(index)
        if n > max_deep_length:
            _fail(f"deep verification limited to {max_deep_length} "
                  "chars", layer=layer, invariant="deep-length-cap")
        _verify_links_deep(index, layer)
        _verify_paths_deep(index, layer)
    return True


# ----------------------------------------------------------------------
# linear checks: in-memory fast path over the private arrays
# ----------------------------------------------------------------------

def _verify_linear_memory(index):
    layer = "memory"
    n = len(index)
    codes = index._codes
    link_dest = index._link_dest
    link_lel = index._link_lel
    asize = index._asize
    if len(codes) != n + 1 or len(link_dest) != n + 1 \
            or len(link_lel) != n + 1:
        _fail("array lengths inconsistent with node count",
              layer=layer, invariant="array-sizes")
    for i in range(1, n + 1):
        _check_link(i, link_dest[i], link_lel[i],
                    link_lel[i - 1] if i > 1 else 0, layer)
    for key, (dest, pt) in index._ribs.items():
        node, code = divmod(key, asize)
        _check_rib(node, code, dest, pt, n,
                   codes[node + 1] if node < n else None, layer)
    events = []
    for key, chain in index._extchains.items():
        rib = index._ribs.get(key)
        if rib is None:
            _fail("extrib chain attached to a non-existent rib",
                  layer=layer, invariant="extrib-orphan-chain")
        _check_chain(rib[0], rib[1], chain, n, layer, events)
    _check_placement(events, layer)


# ----------------------------------------------------------------------
# linear checks: generic path over the public node accessors
# ----------------------------------------------------------------------

def _verify_linear_generic(index, layer):
    """The same invariants as the memory fast path, expressed over the
    accessor protocol the packed and disk layers share: ``link(i)``,
    ``ribs_at(node)``, ``extrib_chain(node, code)`` and
    ``vertebra_label(i)``."""
    n = len(index)
    prev_lel = 0
    for i in range(1, n + 1):
        dest, lel = index.link(i)
        _check_link(i, dest, lel, prev_lel, layer)
        prev_lel = lel
    events = []
    for node in range(n + 1):
        ribs = index.ribs_at(node)
        next_label = index.vertebra_label(node + 1) if node < n else None
        for code, (dest, pt) in sorted(ribs.items()):
            _check_rib(node, code, dest, pt, n, next_label, layer)
            chain = list(index.extrib_chain(node, code))
            if chain:
                _check_chain(dest, pt, chain, n, layer, events)
    _check_placement(events, layer)


# ----------------------------------------------------------------------
# shared single-invariant checks
# ----------------------------------------------------------------------

def _check_link(i, dest, lel, prev_lel, layer):
    if not 0 <= dest < i:
        _fail(f"link of node {i} points to {dest}, not upstream",
              layer=layer, invariant="link-upstream")
    if not 0 <= lel < i:
        _fail(f"LEL of node {i} is {lel}, outside [0, {i})",
              layer=layer, invariant="lel-range")
    if (lel == 0) != (dest == 0):
        _fail(f"node {i}: LEL {lel} and destination {dest} disagree "
              "about the null suffix", layer=layer,
              invariant="lel-null-suffix")
    if i > 1 and lel > prev_lel + 1:
        _fail(f"LEL jumped from {prev_lel} to {lel} at node {i}",
              layer=layer, invariant="lel-increment")
    if lel > dest:
        _fail(f"node {i}: LEL {lel} exceeds its destination {dest}",
              layer=layer, invariant="lel-first-occurrence")


def _check_rib(node, code, dest, pt, n, next_label, layer):
    if not 0 <= node < dest <= n:
        _fail(f"rib at {node} -> {dest} not strictly downstream",
              layer=layer, invariant="rib-downstream")
    if not 0 <= pt <= node:
        _fail(f"rib at {node}: PT {pt} outside [0, {node}]",
              layer=layer, invariant="rib-pt-range")
    if next_label is not None and next_label == code:
        _fail(f"rib at {node} duplicates its vertebra label",
              layer=layer, invariant="rib-duplicates-vertebra")


def _check_chain(rib_dest, rib_pt, chain, n, layer, events):
    """Extrib invariants along one chain: every element strictly
    downstream of its predecessor, thresholds strictly ascending
    starting above the parent rib's PT."""
    last_dest, last_pt = rib_dest, rib_pt
    for e_dest, e_pt in chain:
        if not last_dest < e_dest <= n:
            _fail(f"extrib {last_dest} -> {e_dest} not strictly "
                  "downstream along its chain", layer=layer,
                  invariant="extrib-downstream")
        if e_pt <= last_pt:
            _fail(f"extrib chain thresholds not increasing "
                  f"({last_pt} -> {e_pt})", layer=layer,
                  invariant="extrib-pt-ascending")
        events.append((e_dest, rib_dest, e_pt, rib_pt))
        last_dest, last_pt = e_dest, e_pt


def _check_placement(events, layer):
    """Re-enact the paper's Section 2.6 physical placement (an extrib
    is stored at the first unoccupied node along the chain hanging off
    its parent rib's destination) and require it collision-free: at
    most one extrib per node. ``events`` is ``(dest, rib_dest, PT,
    PRT)`` per element; creation order is destination order."""
    events.sort()
    occupied = {}  # node -> destination of the extrib stored there
    located = set()
    for dest, rib_dest, pt, prt in events:
        x = rib_dest
        hops = 0
        while x in occupied:
            x = occupied[x]
            hops += 1
            if hops > len(events):
                _fail("extrib placement chain cycles", layer=layer,
                      invariant="extrib-placement-cycle")
        if x in located:
            _fail(f"two extribs located at node {x} (paper layout "
                  "allows at most one per node)", layer=layer,
                  invariant="extrib-placement-collision")
        located.add(x)
        occupied[x] = dest


# ----------------------------------------------------------------------
# sharded layer
# ----------------------------------------------------------------------

def _verify_sharded(index, deep=False, max_deep_length=400):
    """Verify every shard's index plus the partition bookkeeping."""
    layer = "sharded"
    n = len(index)
    overlap = index.overlap
    shards = index._shards
    if not shards:
        _fail("sharded index has no shards", layer=layer,
              invariant="shard-empty")
    expected_start = 0
    for i, shard in enumerate(shards):
        if shard.start != expected_start:
            _fail(f"shard {i} starts at {shard.start}, expected "
                  f"{expected_start} (owned spans must be contiguous)",
                  layer=layer, invariant="shard-contiguous")
        if shard.owned_len < 0 or shard.pending_overlap < 0:
            _fail(f"shard {i} has negative extents", layer=layer,
                  invariant="shard-extents")
        local = len(shard.index)
        if local < shard.owned_len:
            _fail(f"shard {i} indexed {local} chars but owns "
                  f"{shard.owned_len}", layer=layer,
                  invariant="shard-owned-indexed")
        tail = i == len(shards) - 1
        if tail:
            if shard.pending_overlap:
                _fail(f"tail shard {i} has pending overlap "
                      f"{shard.pending_overlap}", layer=layer,
                      invariant="shard-tail-pending")
            if local != shard.owned_len:
                _fail(f"tail shard {i} indexed {local} chars beyond "
                      f"its owned span {shard.owned_len}", layer=layer,
                      invariant="shard-tail-extent")
        else:
            # A sealed shard is owed exactly its overlap window; what
            # has not arrived yet is carried as pending_overlap and
            # drained by later extends.
            if local + shard.pending_overlap != shard.owned_len + overlap:
                _fail(f"shard {i}: local {local} + pending "
                      f"{shard.pending_overlap} != owned "
                      f"{shard.owned_len} + overlap {overlap}",
                      layer=layer, invariant="shard-overlap-drain")
        expected_start += shard.owned_len
    if expected_start != n:
        _fail(f"owned spans cover {expected_start} chars but the index "
              f"reports length {n}", layer=layer,
              invariant="shard-length")
    # Stitched-text consistency: every shard's local text must be the
    # corresponding slice of the full text.
    full = "".join(s.index.text[:s.owned_len] for s in shards)
    for i, shard in enumerate(shards):
        local_text = shard.index.text
        if local_text != full[shard.start:shard.start + len(local_text)]:
            _fail(f"shard {i}'s text disagrees with the stitched "
                  "global text", layer=layer, invariant="shard-text")
    for i, shard in enumerate(shards):
        verify_index(shard.index, deep=deep,
                     max_deep_length=max_deep_length)
    return True


# ----------------------------------------------------------------------
# deep (oracle) checks — layer-generic already: only ``text``, ``link``
# and the engine's traversal are consulted
# ----------------------------------------------------------------------

def _verify_links_deep(index, layer):
    """Brute-force recomputation of every LEL and link destination."""
    text = index.text
    for i in range(1, len(text) + 1):
        prefix = text[:i]
        expected_lel = 0
        expected_dest = 0
        for length in range(i - 1, 0, -1):
            suffix = prefix[-length:]
            pos = prefix.find(suffix)
            if pos + length < i:
                expected_lel = length
                expected_dest = pos + length
                break
        dest, lel = index.link(i)
        if lel != expected_lel:
            _fail(f"node {i}: LEL {lel} != brute-force {expected_lel}",
                  layer=layer, invariant="deep-lel")
        if dest != expected_dest:
            _fail(f"node {i}: link destination {dest} != "
                  f"first-occurrence end {expected_dest}",
                  layer=layer, invariant="deep-link")


def _verify_paths_deep(index, layer):
    """Valid paths == substrings, exhaustively over the frontier."""
    text = index.text
    n = len(text)
    substrings = {text[i:j] for i in range(n) for j in range(i + 1, n + 1)}
    alphabet = index.alphabet
    for sub in substrings:
        if find_first_end(index, alphabet.encode(sub))[0] is None:
            _fail(f"false negative: substring {sub!r} has no valid "
                  "path", layer=layer, invariant="deep-false-negative")
    # False-positive frontier: every substring (and the empty string)
    # extended by one character that does not continue it must fail.
    candidates = substrings | {""}
    for stem in candidates:
        for ch in alphabet.symbols:
            if alphabet.separator_code is not None \
                    and alphabet.encode_char(ch) == alphabet.separator_code:
                continue
            word = stem + ch
            if word in substrings:
                continue
            if word in text:
                continue
            if find_first_end(index, alphabet.encode(word))[0] \
                    is not None:
                _fail(f"false positive: {word!r} has a valid path but "
                      "is not a substring", layer=layer,
                      invariant="deep-false-positive")
