"""Shared fixtures and oracles for the test suite."""

import random
from contextlib import contextmanager

import pytest

from repro.alphabet import Alphabet

#: The paper's running example (Figures 1-3).
PAPER_STRING = "aaccacaaca"


@pytest.fixture
def paper_index():
    from repro.core import SpineIndex

    return SpineIndex(PAPER_STRING)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_string(rng, alphabet_size, length):
    symbols = "abcdefgh"[:alphabet_size]
    return "".join(rng.choice(symbols) for _ in range(length))


def make_alphabet(text_or_size):
    if isinstance(text_or_size, int):
        return Alphabet("abcdefgh"[:text_or_size])
    return Alphabet("".join(sorted(set(text_or_size))))


def brute_occurrences(text, pattern):
    """All 0-indexed (overlapping) occurrence starts of ``pattern``."""
    m = len(pattern)
    return [i for i in range(len(text) - m + 1)
            if text[i:i + m] == pattern]


def all_substrings(text, max_len=None):
    n = len(text)
    out = set()
    for i in range(n):
        stop = n if max_len is None else min(n, i + max_len)
        for j in range(i + 1, stop + 1):
            out.add(text[i:j])
    return out


@contextmanager
def three_layers(text, **disk_options):
    """``{"memory": ..., "packed": ..., "disk": ...}`` indexes of
    ``text`` over the DNA alphabet; the disk index is closed on exit."""
    from repro.alphabet import dna_alphabet
    from repro.core import SpineIndex
    from repro.core.packed import PackedSpineIndex
    from repro.disk.spine_disk import DiskSpineIndex

    memory = SpineIndex(text, alphabet=dna_alphabet())
    disk = DiskSpineIndex(alphabet=dna_alphabet(), **disk_options)
    try:
        disk.extend(text)
        yield {"memory": memory,
               "packed": PackedSpineIndex.from_index(memory),
               "disk": disk}
    finally:
        disk.close()


def lock_checked_index(text):
    """A ``SpineIndex`` of ``text`` whose traversal accessors fail
    unless called inside its (non-reentrant) ``read_locked()``."""
    from repro.core import SpineIndex

    class LockChecked(SpineIndex):
        held = False
        #: Times the read lock was taken.
        entries = 0

        @contextmanager
        def read_locked(self):
            assert not self.held, "read lock taken twice"
            self.held = True
            self.entries += 1
            try:
                yield
            finally:
                self.held = False

        def vertebra_run(self, node, codes, i):
            assert self.held, "vertebra_run outside the read lock"
            return super().vertebra_run(node, codes, i)

        def rib(self, node, code):
            assert self.held, "rib outside the read lock"
            return super().rib(node, code)

    return LockChecked(text)
