"""The engine's link scan over the layers' window decoders.

:func:`repro.core.search.link_scan` is the only link-scan loop: each
layer decodes a window of LEL-qualifying entries (``link_candidates``;
copied link-array slices on memory, overflow-resolved arrays on packed,
decoded LT pages on disk) and one pointer-doubling closure
(:func:`repro.core.search.reaching_entries`) decides it against the
target bitmap that :meth:`OccurrenceScanner.resolve` grows. These tests
hold the scan to the per-entry rule it replaces — "``LEL >= min_lel``
and ``dest`` is already a target", tested in ascending order while the
caller grows the targets — written out below as the reference. The
packed instances of the shared tests run in ``test_packed_scan.py``.
"""

import contextlib
import random
from unittest import mock

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


def drive(index, patterns, n, stride=None):
    """Resolve ``patterns`` (``(first_end, length)`` pairs) up to node
    ``n`` with :meth:`OccurrenceScanner.resolve`, the layer's
    ``scan_stride`` replaced by ``stride`` if given. Returns every
    entry the window loop yielded and the nodes the scanner
    accepted."""
    scanner = search.OccurrenceScanner(index)
    pids = [scanner.add(first_end, length)
            for first_end, length in patterns]
    yielded = []
    scan = search.link_scan

    def recorded(*args, **kwargs):
        for entry in scan(*args, **kwargs):
            yielded.append(entry)
            yield entry

    strided = (contextlib.nullcontext() if stride is None else
               mock.patch.object(type(index), "scan_stride", stride))
    with strided, mock.patch.object(search, "link_scan", recorded):
        results = scanner.resolve(n)
    return yielded, {j for pid in pids for j in results[pid][1:]}


def reference_drive(entries, patterns, n):
    """:func:`drive`'s per-entry reference over ``entries`` (a
    ``reference_entries``-like generator): targets start at the first
    ends, and a yielded node becomes a target when some pattern ending
    at its destination fits within its LEL."""
    node_targets = {}
    for pid, (first_end, length) in enumerate(patterns):
        node_targets.setdefault(first_end, []).append((pid, length))
    min_length = min(length for _, length in patterns)
    lo = min(first_end for first_end, _ in patterns)
    yielded = []
    accepted = set()
    for j, dest, lel in entries(lo, n, min_length, node_targets):
        yielded.append((j, dest, lel))
        hits = [(pid, length) for pid, length in node_targets[dest]
                if lel >= length]
        if hits:
            node_targets.setdefault(j, []).extend(hits)
            accepted.add(j)
    return yielded, accepted


def by_reference(index, patterns, n):
    return reference_drive(lambda *a: reference_entries(index, *a),
                           patterns, n)


def target_bitmap(nodes, hi):
    """A :func:`search.link_scan` bitmap over ``min(nodes) - 1 .. hi``
    with ``nodes`` set; returns ``(bitmap, base)``."""
    base = min(nodes) - 1
    bitmap = bytearray(hi + 1 - base)
    for node in nodes:
        if node <= hi:
            bitmap[node - base] = 1
    return bitmap, base


def first_ends(index, pattern_list):
    out = []
    for pattern in pattern_list:
        end, _ = search.find_first_end(index,
                                       index.alphabet.encode(pattern))
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


#: Window strides of the engine's loop (``None``: the layer's own).
WINDOWS = [None, 4096, search.SCAN_WINDOW, 257]


@pytest.mark.parametrize("window", WINDOWS)
def test_single_patterns_match_reference(layer_text, window):
    index, text = layer_text
    n = len(index)
    for pattern in sample_patterns(text, 25, (2, 24), seed=3):
        patterns = first_ends(index, [pattern])
        got = drive(index, patterns, n, window)
        want = by_reference(index, patterns, n)
        assert got == want, pattern


@pytest.mark.parametrize("window", WINDOWS)
def test_mixed_length_batch_matches_reference(layer_text, window):
    index, text = layer_text
    n = len(index)
    patterns = first_ends(index,
                          sample_patterns(text, 40, (3, 40), seed=5))
    got_yielded, got_accepted = drive(index, patterns, n, window)
    want_yielded, want_accepted = by_reference(index, patterns, n)
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
        self.polls = 0

    def checkpoint(self):
        pass

    def poll(self):
        self.polls += 1
        if not self.left:
            raise Cancelled
        self.left -= 1


@pytest.fixture(scope="module", params=["memory", "packed", "disk"])
def long_index(request):
    text = _random_dna(6 * search.SCAN_WINDOW, 7)
    return build(request.param, text, dna_alphabet()), text


def count_windows(monkeypatch, index):
    """Record the size of every window the scan asks ``index`` for."""
    asked = []
    decode = index.link_candidates

    def counted(start, stop, min_lel):
        asked.append(stop - start)
        return decode(start, stop, min_lel)

    monkeypatch.setattr(index, "link_candidates", counted)
    return asked


@pytest.mark.parametrize("k", [0, 1, 3])
def test_cancelled_scan_stops_within_one_window(monkeypatch, long_index,
                                                k):
    # A cancellable scan polls before every window, so it asks the
    # layer for one window per good poll and none past the last.
    index, text = long_index
    asked = count_windows(monkeypatch, index)
    with pytest.raises(Cancelled):
        search.find_all(index, text[:12], cancel=PollBudget(k))
    assert len(asked) == k
    assert sum(asked) <= k * index.scan_stride


def test_windows_start_at_the_first_scanned_node(monkeypatch, long_index):
    # Memory and packed windows run a stride at a time from the first
    # scanned node, so a scan over L positions takes ceil(L / stride)
    # windows; disk windows end on multiples of its stride (whole LT
    # pages), the last one at the tail.
    index, text = long_index
    stride = index.scan_stride
    n = len(index)
    windows = []
    decode = index.link_candidates

    def recorded(start, stop, min_lel):
        windows.append((start, stop))
        return decode(start, stop, min_lel)

    monkeypatch.setattr(index, "link_candidates", recorded)
    for start in (5, stride - 3, stride + 17, 3 * stride + 1):
        pattern = text[start:start + 12]
        first, _ = search.find_first_end(index,
                                         index.alphabet.encode(pattern))
        windows.clear()
        search.find_all(index, pattern)
        assert windows[0][0] == first + 1
        assert windows[-1][1] == n + 1
        assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
        if index.scan_aligned:
            assert all(stop % stride == 0 for _, stop in windows[:-1])
        else:
            assert len(windows) == -(-(n - first) // stride)


def test_dense_cancelled_scan_stops_within_poll_hits(monkeypatch,
                                                     long_index):
    # A 1-char pattern matches about a quarter of the positions, so one
    # window holds ~4k occurrences: a token that expires right after
    # its first poll (before the first window) must stop the scan
    # within POLL_HITS accepted occurrences, not at the window's end.
    index, text = long_index
    asked = count_windows(monkeypatch, index)
    yielded = []
    scan = search.link_scan

    def recorded(*args, **kwargs):
        for entry in scan(*args, **kwargs):
            yielded.append(entry)
            yield entry

    monkeypatch.setattr(search, "link_scan", recorded)
    token = PollBudget(1)
    with pytest.raises(Cancelled):
        search.find_all(index, text[0], cancel=token)
    assert token.polls == 2
    assert len(asked) == 1
    assert 0 < len(yielded) <= search.POLL_HITS
    # A plain scan of the same window accepts far more.
    assert len(search.find_all(index, text[0])) > 4 * search.POLL_HITS


# ----------------------------------------------------------------------
# the shared closure
# ----------------------------------------------------------------------

@st.composite
def closure_windows(draw):
    """One window for :func:`search.reaching_entries`: ascending
    candidates above the bitmap's base, each linking upstream (some
    below the base), their LELs and a target set above the base —
    about half of them holding no candidate's destination."""
    base = draw(st.integers(-1, 20))
    cand = sorted(draw(st.sets(st.integers(max(1, base + 1), 80),
                               max_size=40)))
    dest = [draw(st.integers(0, j - 1)) for j in cand]
    lel = draw(st.lists(st.integers(1, 50), min_size=len(cand),
                        max_size=len(cand)))
    targets = draw(st.sets(st.integers(base + 1, 80), max_size=12))
    if draw(st.booleans()):
        targets -= set(dest)
    return base, cand, dest, lel, targets


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
    base, cand, dest, lel, seeds = window
    grows = GROWTH[growth]
    bitmap = bytearray(81 - base)
    for node in seeds:
        bitmap[node - base] = 1
    got = []
    for j, d, length in search.reaching_entries(
            np.array(cand, dtype=np.int64), np.array(dest, dtype=np.intc),
            np.array(lel, dtype=np.intc), bitmap, base):
        got.append((j, d, length))
        if grows(j):
            bitmap[j - base] = 1
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


def grow_every_yield(index, lo, hi, min_lel, seeds):
    """Scan ``(lo, hi]`` once with the engine's window loop, adding
    every yielded node to the target bitmap before asking for the next
    entry."""
    hi = min(hi, len(index))
    bitmap, base = target_bitmap(seeds, hi)
    out = []
    for j, dest, lel in search.link_scan(index, lo, hi, min_lel, bitmap,
                                         base):
        out.append((j, dest, lel))
        bitmap[j - base] = 1
    return out


def reference_grow_every_yield(index, lo, hi, min_lel, seeds):
    targets = dict.fromkeys(seeds)
    out = []
    for j, dest, lel in reference_entries(index, lo, hi, min_lel, targets):
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
            got = grow_every_yield(index, lo, hi, min_lel, seeds + [lo])
            want = reference_grow_every_yield(index, lo, hi, min_lel,
                                              seeds + [lo])
            assert got == want, (min_lel, lo, hi)


def test_destination_below_first_end_is_no_target(repeat_rich):
    # Registering a later occurrence as the first end leaves the real
    # first occurrence below the bitmap: entries linking there must be
    # rejected, as by the per-entry rule, though their LEL qualifies.
    index, text = repeat_rich
    n = len(index)
    below = 0
    for pattern in sample_patterns(text, 30, (3, 10), seed=21):
        starts = search.find_all(index, pattern)
        if len(starts) < 3:
            continue
        patterns = [(starts[1] + len(pattern), len(pattern))]
        got = drive(index, patterns, n)
        assert got == by_reference(index, patterns, n), pattern
        start = patterns[0][0]
        for j in range(start + 1, n + 1):
            dest, lel = index.link(j)
            below += dest < start and lel >= len(pattern)
    assert below > 0


def unique_tail(text):
    """The shortest suffix of ``text`` that occurs nowhere else."""
    n = len(text)
    return next(text[-m:] for m in range(1, n + 1)
                if text.find(text[-m:]) == n - m)


def test_first_end_at_the_tail(repeat_rich):
    index, text = repeat_rich
    n = len(index)
    tail = unique_tail(text)
    assert search.find_all(index, tail) == [n - len(tail)]
    # With an earlier pattern the tail's byte is the bitmap's last.
    patterns = first_ends(index, [tail, text[:6], text[n // 2:n // 2 + 4]])
    assert patterns[0][0] == n
    for window in (None, 257):
        assert drive(index, patterns, n, window) == \
            by_reference(index, patterns, n)


def test_snapshot_limit_below_length(repeat_rich):
    index, text = repeat_rich
    n = len(index)
    patterns = first_ends(index, sample_patterns(text, 40, (3, 12),
                                                 seed=23)
                          + [unique_tail(text)])
    for limit in (n // 3, n // 2 + 1, n - 1):
        # First ends past the limit stay out of the bitmap.
        assert any(end > limit for end, _ in patterns)
        assert drive(index, patterns, limit) == \
            by_reference(index, patterns, limit)
        for pattern in sample_patterns(text[:limit], 10, (2, 8),
                                       seed=limit):
            want = [i for i in range(limit - len(pattern) + 1)
                    if text.startswith(pattern, i)]
            assert search.find_all(index, pattern, limit=limit) == want


def test_disk_entries_through_rt_rows_are_yielded():
    # A destination displaced into an RT row is read back from the row
    # and yielded like any other.
    make_text, make_alphabet = TEXTS["repeat-rich"]
    text = make_text()
    disk = build_disk(text, make_alphabet(), "disk-1k-pool4-latched")
    n = len(disk)
    got = grow_every_yield(disk, 0, n, 1, range(n + 1))
    assert got == list(reference_entries(disk, 0, n, 1,
                                         set(range(n + 1))))
    displaced = [j for j, _, _ in got if disk._lt.read(j)[0] < 0]
    assert len(displaced) > 100


@pytest.mark.parametrize("sweep_pages", [1, 2, 3])
def test_disk_window_edges_match_reference(sweep_pages):
    # Shrink the scan's stride so it runs over many windows, page-
    # aligned or (257) ending mid-page.
    make_text, make_alphabet = TEXTS["repeat-rich"]
    text = make_text()
    disk = build_disk(text, make_alphabet(), "disk-1k-pool4-latched")
    n = len(disk)
    patterns = first_ends(disk, sample_patterns(text, 40, (3, 40), seed=5))
    want = by_reference(disk, patterns, n)
    for stride in (sweep_pages * disk._lt.per_page, 257):
        assert drive(disk, patterns, n, stride) == want


@pytest.mark.parametrize("scan_window", [1, 2, 3])
def test_memory_window_edges_match_reference(monkeypatch, scan_window):
    # Shrink the memory layer's stride so every scan spans many
    # windows, starts mid-window and may end past the index.
    monkeypatch.setattr(search, "SCAN_WINDOW", scan_window)
    make_text, make_alphabet = TEXTS["repeat-rich"]
    text = make_text()[:1500]
    index = SpineIndex(text, alphabet=make_alphabet())
    assert index.scan_stride == scan_window
    n = len(index)
    patterns = first_ends(index, sample_patterns(text, 40, (3, 40), seed=5))
    for window in (None, 257):
        assert drive(index, patterns, n, window) == \
            by_reference(index, patterns, n)
    seeds = [e for e, _ in patterns]
    for lo, hi in [(0, n), (1, 8), (4, 5), (5, 300), (n - 2, n + 7),
                   (n - 1, 2 * n), (n, n + 1)]:
        for min_lel in (1, 4, 12):
            got = grow_every_yield(index, lo, hi, min_lel, seeds + [lo])
            want = reference_grow_every_yield(index, lo, hi, min_lel,
                                              seeds + [lo])
            assert got == want, (scan_window, lo, hi, min_lel)


@pytest.mark.parametrize("scan_window", [None, 3])
@pytest.mark.parametrize("past_end", [0, 50])
def test_memory_scan_survives_extend_between_yields(monkeypatch,
                                                    scan_window, past_end):
    # A suspended scan must not pin the growing link arrays (an
    # exported buffer makes ``extend`` raise ``BufferError``) and must
    # keep to the snapshot (lo, hi] taken when it started, even when
    # ``hi`` reaches past the index.
    if scan_window is not None:
        monkeypatch.setattr(search, "SCAN_WINDOW", scan_window)
    make_text, make_alphabet = TEXTS["repeat-rich"]
    index = SpineIndex(make_text()[:2000], alphabet=make_alphabet())
    n = len(index)
    want = list(reference_entries(index, 0, n, 1, set(range(n + 1))))
    bitmap, base = target_bitmap(range(n + 1), n)
    sweep = search.link_scan(index, 0, n + past_end, 1, bitmap, base)
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
    # Page-aligned windows of any stride look each LT page up once, in
    # order, so the engine's scan costs the pool exactly what one
    # per-record sweep of the whole range does.
    text = _repeat_rich(6000, 2)
    patterns_text = sample_patterns(text, 40, (3, 40), seed=5)
    runs = []
    for per_record in (False, True):
        disk = DiskSpineIndex(alphabet=dna_alphabet(), page_size=page_size,
                              buffer_pages=buffer_pages)
        disk.extend(text)
        patterns = first_ends(disk, patterns_text)
        n = len(disk)
        if per_record:
            answers = [reference_drive(
                lambda *a: per_record_sweep(disk, *a), patterns, n)
                for _ in range(3)]
        else:
            answers = [drive(disk, patterns, n, stride)
                       for stride in (None, disk._lt.per_page,
                                      3 * disk._lt.per_page)]
        runs.append((answers, dict(vars(disk.pagefile.metrics))))
    (got, got_io), (want, want_io) = runs
    assert got == want
    # Reads, hits, misses, evictions, sequential and random reads.
    assert got_io == want_io
    assert got_io["evictions"] > 0
