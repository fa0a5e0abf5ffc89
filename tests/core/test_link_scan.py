"""The array-backed link scans (``iter_link_entries`` of the memory,
packed and disk layers).

All three layers find the entries that can reach the targets with
array operations — one pointer-doubling closure
(:func:`repro.core.search.reaching_entries`), per window of copied link
arrays on memory, over the whole range on packed and per window of
decoded LT pages on disk — and re-test only those entry by entry.
These tests hold them to the per-entry rule they replace — "``LEL >=
min_lel`` and ``dest`` is already a target", tested in ascending order
while the caller grows the targets — written out below as the
reference. The packed instances of the shared tests run in
``test_packed_scan.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import Alphabet, dna_alphabet
from repro.core import SpineIndex, search
from repro.core.packed import PackedSpineIndex
from repro.disk import spine_disk
from repro.disk.spine_disk import DiskSpineIndex
from repro.resilience import CancellationToken, Deadline
from repro.sequences import derive_sequence, generate_dna


def reference_entries(index, lo, hi, min_lel, targets):
    """The per-entry scan rule: one ``link`` lookup per node."""
    for j in range(lo + 1, min(hi, len(index)) + 1):
        dest, lel = index.link(j)
        if lel >= min_lel and dest in targets:
            yield j, dest, lel


def drive(entries, patterns, n, window):
    """Run ``entries`` (an ``iter_link_entries``) the way
    :class:`OccurrenceScanner` does: targets start at the first ends,
    and a yielded node becomes a target when some pattern ending at its
    destination fits within its LEL. Returns every yielded entry and
    the accepted nodes."""
    node_targets = {}
    for pid, (first_end, length) in enumerate(patterns):
        node_targets.setdefault(first_end, []).append((pid, length))
    min_length = min(length for _, length in patterns)
    lo = min(first_end for first_end, _ in patterns)
    yielded = []
    accepted = set()
    while lo < n:
        hi = min(lo + window, n)
        for j, dest, lel in entries(lo, hi, min_length, node_targets):
            yielded.append((j, dest, lel))
            hits = [(pid, length) for pid, length in node_targets[dest]
                    if lel >= length]
            if hits:
                node_targets.setdefault(j, []).extend(hits)
                accepted.add(j)
        lo = hi
    return yielded, accepted


def first_ends(index, pattern_list):
    out = []
    for pattern in pattern_list:
        end = search.find_first_end(index, index.alphabet.encode(pattern))
        if end is not None:
            out.append((end, len(pattern)))
    return out


def sample_patterns(text, count, lengths, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.randint(*lengths)
        start = rng.randrange(len(text) - length + 1)
        out.append(text[start:start + length])
    return out


def _random_dna(n, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("ACGT") for _ in range(n))


def _repeat_rich(n, seed):
    base = generate_dna(n // 2, seed=seed, repeat_fraction=0.6)
    return (base + derive_sequence(base, seed=seed + 1))[:n]


TEXTS = {
    "random-dna": (lambda: _random_dna(6000, 1), dna_alphabet),
    "a-run": (lambda: "a" * 3000, lambda: Alphabet("ab")),
    "ab-run": (lambda: "ab" * 1500, lambda: Alphabet("ab")),
    "repeat-rich": (lambda: _repeat_rich(6000, 2), dna_alphabet),
}

#: Disk configurations: ``DiskSpineIndex`` arguments, and whether the
#: pool is latched (thread-safe). The small latched pool of four 1 KiB
#: pages evicts on almost every RT row read.
DISKS = {
    "disk": ({}, False),
    "disk-1k-pool4-latched": ({"page_size": 1024, "buffer_pages": 4},
                              True),
}


def build_disk(text, alphabet, config):
    kwargs, latched = DISKS[config]
    disk = DiskSpineIndex(alphabet=alphabet, **kwargs)
    disk.extend(text)
    if latched:
        disk.enable_concurrent_reads()
    return disk


def build(layer, text, alphabet):
    if layer == "memory":
        return SpineIndex(text, alphabet=alphabet)
    if layer == "packed":
        return PackedSpineIndex.from_index(
            SpineIndex(text, alphabet=alphabet))
    return build_disk(text, alphabet, layer)


@pytest.fixture(scope="module",
                params=[(layer, name)
                        for layer in ["memory", *sorted(DISKS)]
                        for name in sorted(TEXTS)],
                ids=lambda p: "-".join(p))
def layer_text(request):
    layer, name = request.param
    make_text, make_alphabet = TEXTS[name]
    text = make_text()
    return build(layer, text, make_alphabet()), text


WINDOWS = [None, 4096, search.SCAN_WINDOW, 257]


@pytest.mark.parametrize("window", WINDOWS)
def test_single_patterns_match_reference(layer_text, window):
    index, text = layer_text
    n = len(index)
    step = n if window is None else window
    for pattern in sample_patterns(text, 25, (2, 24), seed=3):
        patterns = first_ends(index, [pattern])
        got = drive(index.iter_link_entries, patterns, n, step)
        want = drive(lambda *a: reference_entries(index, *a),
                     patterns, n, step)
        assert got == want, pattern


@pytest.mark.parametrize("window", WINDOWS)
def test_mixed_length_batch_matches_reference(layer_text, window):
    index, text = layer_text
    n = len(index)
    step = n if window is None else window
    patterns = first_ends(index,
                          sample_patterns(text, 40, (3, 40), seed=5))
    got_yielded, got_accepted = drive(index.iter_link_entries,
                                      patterns, n, step)
    want_yielded, want_accepted = drive(
        lambda *a: reference_entries(index, *a), patterns, n, step)
    assert got_yielded == want_yielded
    assert got_accepted == want_accepted


def test_cancel_token_answers_equal_plain_find_all(layer_text):
    index, text = layer_text
    for pattern in sample_patterns(text, 20, (1, 12), seed=9):
        token = CancellationToken(Deadline.after(60.0))
        assert search.find_all(index, pattern, cancel=token) == \
            search.find_all(index, pattern)


class Cancelled(Exception):
    pass


class PollBudget:
    """A stand-in cancellation token whose ``poll`` raises after ``k``
    polls; the traversal's amortized checkpoints are free."""

    def __init__(self, k):
        self.left = k

    def checkpoint(self):
        pass

    def poll(self):
        if not self.left:
            raise Cancelled
        self.left -= 1


@pytest.fixture(scope="module", params=["memory", "packed"])
def long_index(request):
    text = _random_dna(6 * search.SCAN_WINDOW, 7)
    return build(request.param, text, dna_alphabet()), text


@pytest.mark.parametrize("k", [0, 1, 3])
def test_cancelled_scan_stops_within_one_window(monkeypatch, long_index,
                                                k):
    # A cancellable scan polls once per SCAN_WINDOW positions, so it
    # asks the layer for at most one window past the last good poll.
    index, text = long_index
    asked = []
    sweep = index.iter_link_entries

    def counted(lo, hi, min_lel, targets):
        asked.append(min(hi, len(index)) - lo)
        return sweep(lo, hi, min_lel, targets)

    monkeypatch.setattr(index, "iter_link_entries", counted)
    with pytest.raises(Cancelled):
        search.find_all(index, text[:12], cancel=PollBudget(k))
    assert len(asked) == k
    assert sum(asked) <= (k + 1) * search.SCAN_WINDOW


# ----------------------------------------------------------------------
# the shared closure
# ----------------------------------------------------------------------

@st.composite
def closure_windows(draw):
    """One window for :func:`search.reaching_entries`: ascending
    candidates, each linking upstream, their LELs and a target set —
    about half of them holding no candidate's destination."""
    cand = sorted(draw(st.sets(st.integers(1, 80), max_size=40)))
    dest = [draw(st.integers(0, j - 1)) for j in cand]
    lel = draw(st.lists(st.integers(1, 50), min_size=len(cand),
                        max_size=len(cand)))
    targets = draw(st.sets(st.integers(0, 80), max_size=12))
    if draw(st.booleans()):
        targets -= set(dest)
    return cand, dest, lel, targets


#: Which yielded nodes the caller adds to the targets.
GROWTH = {
    "never": lambda j: False,
    "every-yield": lambda j: True,
    "odd-nodes": lambda j: j % 2 == 1,
}


@pytest.mark.parametrize("growth", sorted(GROWTH))
@settings(max_examples=150, deadline=None)
@given(window=closure_windows())
def test_reaching_entries_matches_per_entry_rule(growth, window):
    cand, dest, lel, seeds = window
    grows = GROWTH[growth]
    targets = dict.fromkeys(seeds)
    got = []
    for j, d, length in search.reaching_entries(
            np.array(cand, dtype=np.int64), np.array(dest, dtype=np.intc),
            np.array(lel, dtype=np.intc), targets):
        got.append((j, d, length))
        if grows(j):
            targets[j] = None
    targets = set(seeds)
    want = []
    for j, d, length in zip(cand, dest, lel):
        if d in targets:
            want.append((j, d, length))
            if grows(j):
                targets.add(j)
    assert got == want


# ----------------------------------------------------------------------
# cross-layer edge cases
# ----------------------------------------------------------------------

LAYERS = ["memory", "packed", *sorted(DISKS)]


@pytest.fixture(scope="module", params=LAYERS)
def repeat_rich(request):
    make_text, make_alphabet = TEXTS["repeat-rich"]
    text = make_text()
    return build(request.param, text, make_alphabet()), text


def grow_every_yield(entries, lo, hi, min_lel, seeds):
    """Sweep ``(lo, hi]`` once, adding every yielded node to the
    targets before asking for the next entry."""
    targets = dict.fromkeys(seeds)
    out = []
    for j, dest, lel in entries(lo, hi, min_lel, targets):
        out.append((j, dest, lel))
        targets[j] = None
    return out


def test_mid_page_ranges_with_growing_targets(repeat_rich):
    index, text = repeat_rich
    n = len(index)
    rng = random.Random(11)
    # 1 KiB pages hold 169 LT entries, 4 KiB pages 681: these ranges
    # start and end mid-page, on page edges and at the tail.
    bounds = [(0, n), (168, 170), (169, 2 * 169), (680, 682),
              (681, n), (n - 5, n), (n - 1, n), (n, n)]
    bounds += [tuple(sorted(rng.sample(range(n + 1), 2)))
               for _ in range(12)]
    for min_lel in (1, 3, 8, 20):
        seeds = [e for e, _ in first_ends(
            index, sample_patterns(text, 6, (min_lel, min_lel + 4),
                                   seed=min_lel))]
        for lo, hi in bounds:
            got = grow_every_yield(index.iter_link_entries, lo, hi,
                                   min_lel, seeds + [lo])
            want = grow_every_yield(
                lambda *a: reference_entries(index, *a), lo, hi,
                min_lel, seeds + [lo])
            assert got == want, (min_lel, lo, hi)


def test_disk_entries_through_rt_rows_are_yielded():
    # A destination displaced into an RT row is read back from the row
    # and yielded like any other.
    make_text, make_alphabet = TEXTS["repeat-rich"]
    text = make_text()
    disk = build_disk(text, make_alphabet(), "disk-1k-pool4-latched")
    n = len(disk)
    every_node = dict.fromkeys(range(n + 1))
    got = list(disk.iter_link_entries(0, n, 1, every_node))
    assert got == list(reference_entries(disk, 0, n, 1, every_node))
    displaced = [j for j, _, _ in got if disk._lt.read(j)[0] < 0]
    assert len(displaced) > 100


@pytest.mark.parametrize("sweep_pages", [1, 2, 3])
def test_disk_window_edges_match_reference(monkeypatch, sweep_pages):
    # Shrink the sweep window so the closure runs over many windows
    # whose edges fall inside the caller's ranges.
    monkeypatch.setattr(spine_disk, "_SWEEP_PAGES", sweep_pages)
    make_text, make_alphabet = TEXTS["repeat-rich"]
    text = make_text()
    disk = build_disk(text, make_alphabet(), "disk-1k-pool4-latched")
    n = len(disk)
    patterns = first_ends(disk, sample_patterns(text, 40, (3, 40), seed=5))
    for window in (n, 257):
        got = drive(disk.iter_link_entries, patterns, n, window)
        want = drive(lambda *a: reference_entries(disk, *a),
                     patterns, n, window)
        assert got == want


@pytest.mark.parametrize("scan_window", [1, 2, 3])
def test_memory_window_edges_match_reference(monkeypatch, scan_window):
    # Shrink the memory scan's window so every caller range spans many
    # windows, starts mid-window and may end past the index.
    monkeypatch.setattr(search, "SCAN_WINDOW", scan_window)
    make_text, make_alphabet = TEXTS["repeat-rich"]
    text = make_text()[:1500]
    index = SpineIndex(text, alphabet=make_alphabet())
    n = len(index)
    patterns = first_ends(index, sample_patterns(text, 40, (3, 40), seed=5))
    for window in (n, 257):
        got = drive(index.iter_link_entries, patterns, n, window)
        want = drive(lambda *a: reference_entries(index, *a),
                     patterns, n, window)
        assert got == want
    seeds = [e for e, _ in patterns]
    for lo, hi in [(0, n), (1, 8), (4, 5), (5, 300), (n - 2, n + 7),
                   (n - 1, 2 * n), (n, n + 1)]:
        for min_lel in (1, 4, 12):
            got = grow_every_yield(index.iter_link_entries, lo, hi,
                                   min_lel, seeds + [lo])
            want = grow_every_yield(
                lambda *a: reference_entries(index, *a), lo, hi,
                min_lel, seeds + [lo])
            assert got == want, (scan_window, lo, hi, min_lel)


@pytest.mark.parametrize("scan_window", [None, 3])
@pytest.mark.parametrize("past_end", [0, 50])
def test_memory_scan_survives_extend_between_yields(monkeypatch,
                                                    scan_window, past_end):
    # A suspended sweep must not pin the growing link arrays (an
    # exported buffer makes ``extend`` raise ``BufferError``) and must
    # keep to the snapshot (lo, hi] taken when it started, even when
    # ``hi`` reaches past the index.
    if scan_window is not None:
        monkeypatch.setattr(search, "SCAN_WINDOW", scan_window)
    make_text, make_alphabet = TEXTS["repeat-rich"]
    index = SpineIndex(make_text()[:2000], alphabet=make_alphabet())
    n = len(index)
    every_node = dict.fromkeys(range(n + 1))
    want = list(reference_entries(index, 0, n, 1, every_node))
    sweep = index.iter_link_entries(0, n + past_end, 1, every_node)
    got = [next(sweep)]
    index.extend("ACGT")
    got.extend(sweep)
    assert len(index) == n + 4
    assert got == want


# ----------------------------------------------------------------------
# disk page traffic
# ----------------------------------------------------------------------

def per_record_sweep(disk, lo, hi, min_lel, targets):
    """The sweep decoded one record at a time: one pool lookup per LT
    page, then an RT row read for each qualifying displaced entry of
    that page, in ascending order."""
    lt = disk._lt
    per_page = lt.per_page
    size = lt.record.size
    n = min(hi, len(disk))
    j = lo + 1
    while j <= n:
        page_no = j // per_page
        end = min(n + 1, (page_no + 1) * per_page)
        frame = disk.pool.get(lt.pages[page_no])
        records = [lt.record.unpack_from(frame, (k % per_page) * size)
                   for k in range(j, end)]
        for k, (ref, lel) in zip(range(j, end), records):
            if lel < min_lel:
                continue
            if ref < 0:
                ptr = -ref - 1
                ref = disk._rt[ptr >> spine_disk._PTR_CLASS_SHIFT].read(
                    ptr & spine_disk._PTR_ROW_MASK)[0]
            if ref in targets:
                yield k, ref, lel
        j = end


@pytest.mark.parametrize("page_size,buffer_pages",
                         [(1024, 4), (1024, 16), (4096, 4)])
def test_disk_sweep_page_traffic_equals_per_record_sweep(page_size,
                                                         buffer_pages):
    text = _repeat_rich(6000, 2)
    patterns_text = sample_patterns(text, 40, (3, 40), seed=5)
    runs = []
    for per_record in (False, True):
        disk = DiskSpineIndex(alphabet=dna_alphabet(), page_size=page_size,
                              buffer_pages=buffer_pages)
        disk.extend(text)
        patterns = first_ends(disk, patterns_text)
        sweep = ((lambda *a: per_record_sweep(disk, *a)) if per_record
                 else disk.iter_link_entries)
        answers = [drive(sweep, patterns, len(disk), window)
                   for window in (len(disk), 257)]
        runs.append((answers, dict(vars(disk.pagefile.metrics))))
    (got, got_io), (want, want_io) = runs
    assert got == want
    # Reads, hits, misses, evictions, sequential and random reads.
    assert got_io == want_io
    assert got_io["evictions"] > 0
