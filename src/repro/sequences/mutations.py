"""Sequence evolution: derive related sequences from an ancestor.

The paper's cross-genome experiments rely on evolutionary relatedness
(conserved segments at high identity inside diverged backgrounds).
These helpers simulate that: point mutations, insertions/deletions,
block rearrangements — deterministic per seed, so workloads and
examples are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.alphabet import alphabet_for
from repro.exceptions import ReproError

#: Largest block of per-position draws :func:`indel_mutate` takes at once.
_INDEL_BLOCK = 256


def point_mutate(text, rate, seed=0, alphabet=None):
    """Substitute each character independently with probability
    ``rate`` (uniformly among the other alphabet symbols)."""
    if not 0 <= rate <= 1:
        raise ReproError("rate must be in [0, 1]")
    if not text:
        return text
    if alphabet is None:
        alphabet = alphabet_for(text)
    rng = np.random.default_rng(seed)
    symbols = alphabet.symbols
    out = list(text)
    hits = np.nonzero(rng.random(len(out)) < rate)[0]
    for i in hits:
        i = int(i)
        choices = [s for s in symbols if s != out[i]]
        if choices:
            out[i] = choices[int(rng.integers(0, len(choices)))]
    return "".join(out)


def _next_event(rng, k, rate):
    """Draw the next ``k`` per-position doubles; return the offset of
    the first one below ``rate``, or ``None`` when there is none.

    ``rng`` is left just past the hit, where ``k`` scalar
    ``rng.random()`` calls stopping at it would leave it: the block
    comes from one ``rng.random(k)`` (the same doubles), and on a hit
    before its last draw the generator is rewound and redrawn up to the
    hit, so the event's own draws continue the scalar stream.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    hits = rng.random(k) < rate
    j = int(hits.argmax())
    if not hits[j]:
        return None
    if j < k - 1:
        bit_generator.state = state
        rng.random(j + 1)
    return j


def indel_mutate(text, rate, seed=0, alphabet=None, max_indel=5):
    """Apply small insertions/deletions at per-position probability
    ``rate`` (half insertions, half deletions, lengths 1..max_indel)."""
    if not 0 <= rate <= 1:
        raise ReproError("rate must be in [0, 1]")
    if max_indel < 1:
        raise ReproError("max_indel must be >= 1")
    if not text:
        return text
    if alphabet is None:
        alphabet = alphabet_for(text)
    rng = np.random.default_rng(seed)
    symbols = alphabet.symbols
    # Blocks of about 1/rate draws: longer ones are mostly redrawn
    # after their hit, shorter ones pay the per-block cost more often.
    block = int(min(_INDEL_BLOCK, 1 / rate)) if rate else _INDEL_BLOCK
    out = []
    i = 0
    n = len(text)
    while i < n:
        k = min(block, n - i)
        j = _next_event(rng, k, rate)
        if j is None:
            out.append(text[i:i + k])
            i += k
            continue
        out.append(text[i:i + j])
        i += j
        length = int(rng.integers(1, max_indel + 1))
        if rng.random() < 0.5:
            # Insertion before position i.
            out.extend(symbols[int(rng.integers(0, len(symbols)))]
                       for _ in range(length))
        else:
            i += length  # deletion
            continue
        out.append(text[i])
        i += 1
    return "".join(out)


def rearrange(text, block_length, seed=0, swaps=1):
    """Swap ``swaps`` pairs of non-overlapping blocks of
    ``block_length`` characters (a crude translocation model)."""
    if block_length < 1:
        raise ReproError("block_length must be >= 1")
    if swaps < 0:
        raise ReproError("swaps must be >= 0")
    n = len(text)
    if n < 4 * block_length or swaps == 0:
        return text
    rng = np.random.default_rng(seed)
    out = list(text)
    for _ in range(swaps):
        a = int(rng.integers(0, n - 2 * block_length))
        b = int(rng.integers(a + block_length, n - block_length))
        out[a:a + block_length], out[b:b + block_length] = (
            out[b:b + block_length], out[a:a + block_length])
    return "".join(out)


def derive_sequence(ancestor, seed=0, snp_rate=0.03, indel_rate=0.002,
                    rearrangement_blocks=1, block_length=1000,
                    alphabet=None):
    """A descendant of ``ancestor``: SNPs + indels + rearrangements.

    The composition mirrors what cross-species genome pairs look like
    to an aligner: mostly-conserved stretches at ``1 - snp_rate``
    identity, occasional length changes, and a few large-scale block
    moves. Deterministic per seed.
    """
    if alphabet is None and ancestor:
        alphabet = alphabet_for(ancestor)
    derived = point_mutate(ancestor, snp_rate, seed=seed,
                           alphabet=alphabet)
    derived = indel_mutate(derived, indel_rate, seed=seed + 1,
                           alphabet=alphabet)
    block = min(block_length, max(1, len(derived) // 8))
    derived = rearrange(derived, block, seed=seed + 2,
                        swaps=rearrangement_blocks)
    return derived
