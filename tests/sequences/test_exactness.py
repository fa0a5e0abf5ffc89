"""The sequence generators' output is fixed per seed.

``generate_codes``, ``Alphabet.decode`` and ``indel_mutate`` read their
random draws in blocks of native Python values. The per-character loops
they replaced are kept here as reference implementations, and each test
asserts the current code reproduces them exactly: every corpus, workload
and pinned experiment count depends on these strings, so a faster
generator must be the same generator. The references run on whatever
numpy is installed, so no digest of one numpy version is pinned.
"""

import numpy as np
import pytest

from repro.alphabet import dna_alphabet, protein_alphabet
from repro.exceptions import AlphabetError
from repro.sequences import (MarkovSequenceGenerator, derive_sequence,
                             generate_dna, generate_protein, indel_mutate)
from repro.sequences import generator, mutations

ALPHABETS = [dna_alphabet(), protein_alphabet()]


def reference_markov_codes(gen, length):
    """One ``searchsorted`` on a numpy row per character."""
    size = gen._size
    order = gen.order
    out = np.empty(length, dtype=np.int64)
    uniforms = gen.rng.random(length)
    context = 0
    context_mod = size ** order if order else 1
    cum = gen._cum
    for i in range(length):
        row = cum[context]
        code = int(np.searchsorted(row, uniforms[i], side="right"))
        if code >= size:
            code = size - 1
        out[i] = code
        if order:
            context = (context * size + code) % context_mod
    return out


def reference_decode(alphabet, codes):
    """A generator expression over the symbols."""
    try:
        return "".join(alphabet.symbols[c] for c in codes)
    except IndexError:
        raise AlphabetError("code out of range") from None


def reference_indel_mutate(text, rate, seed=0, alphabet=None,
                           max_indel=5):
    """One scalar ``rng.random()`` per position."""
    if not text:
        return text
    if alphabet is None:
        alphabet = mutations.alphabet_for(text)
    rng = np.random.default_rng(seed)
    symbols = alphabet.symbols
    out = []
    i = 0
    n = len(text)
    while i < n:
        if rng.random() < rate:
            length = int(rng.integers(1, max_indel + 1))
            if rng.random() < 0.5:
                out.extend(symbols[int(rng.integers(0, len(symbols)))]
                           for _ in range(length))
            else:
                i += length
                continue
        if i < n:
            out.append(text[i])
        i += 1
    return "".join(out)


class TestMarkovCodes:
    @pytest.mark.parametrize("alphabet", ALPHABETS,
                             ids=lambda a: a.name)
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("length", [0, 1, 10_000])
    def test_matches_searchsorted_loop(self, alphabet, order, length):
        seed = 100 + order
        fast = MarkovSequenceGenerator(alphabet, order=order, seed=seed)
        slow = MarkovSequenceGenerator(alphabet, order=order, seed=seed)
        codes = fast.generate_codes(length)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, reference_markov_codes(slow, length))
        # The generator is left where the per-character loop leaves it,
        # so a second call continues the same stream.
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
        assert np.array_equal(fast.generate_codes(300),
                              reference_markov_codes(slow, 300))

    def test_realized_profiles_match(self, monkeypatch):
        fast = [generate_dna(5000, seed=s) for s in range(3)]
        fast.append(generate_protein(3000, seed=3))
        monkeypatch.setattr(generator.MarkovSequenceGenerator,
                            "generate_codes", reference_markov_codes)
        monkeypatch.setattr(type(dna_alphabet()), "decode",
                            reference_decode)
        slow = [generate_dna(5000, seed=s) for s in range(3)]
        slow.append(generate_protein(3000, seed=3))
        assert fast == slow


class TestDecode:
    @pytest.mark.parametrize("alphabet", ALPHABETS,
                             ids=lambda a: a.name)
    @pytest.mark.parametrize("length", [0, 1, 10_000])
    def test_matches_generator_expression(self, alphabet, length):
        codes = np.random.default_rng(length).integers(
            0, alphabet.size, size=length)
        for form in (codes, codes.tolist()):
            assert alphabet.decode(form) == reference_decode(alphabet, form)

    @pytest.mark.parametrize("code", [4, 99])
    def test_out_of_range_code_raises(self, code):
        alphabet = dna_alphabet()
        with pytest.raises(AlphabetError):
            reference_decode(alphabet, [0, code])
        with pytest.raises(AlphabetError):
            alphabet.decode([0, code])


class TestIndelMutate:
    TEXTS = ["", "G", generate_dna(400, seed=5),
             generate_protein(250, seed=6)]

    @pytest.mark.parametrize("rate", [0, 0.002, 0.05, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("max_indel", [1, 5])
    def test_matches_scalar_draws(self, rate, max_indel):
        for text in self.TEXTS:
            for seed in range(40):
                assert indel_mutate(text, rate, seed=seed,
                                    max_indel=max_indel) == \
                    reference_indel_mutate(text, rate, seed=seed,
                                           max_indel=max_indel)

    def test_long_text_at_low_rate(self):
        # Many full blocks between events, and a tail shorter than one.
        text = generate_dna(10_000, seed=8)
        for seed in range(5):
            assert indel_mutate(text, 0.002, seed=seed) == \
                reference_indel_mutate(text, 0.002, seed=seed)

    def test_derive_sequence_matches(self, monkeypatch):
        ancestor = generate_dna(3000, seed=9)
        fast = [derive_sequence(ancestor, seed=s) for s in range(4)]
        monkeypatch.setattr(mutations, "indel_mutate",
                            reference_indel_mutate)
        slow = [derive_sequence(ancestor, seed=s) for s in range(4)]
        assert fast == slow
