"""Synthetic sequence generation with genome-like repeat structure.

Real genomes are far from i.i.d. random: they carry tandem repeats,
interspersed repeat families (SINE/LINE-like), and locally biased base
composition. Those repeats are what give suffix-based indexes their
interesting behaviour — they bound the SPINE label values (Table 3),
thin out the rib distribution (Table 4), and concentrate link
destinations upstream (Figure 8). An i.i.d. string would understate all
of them, so the generator layers:

1. an order-``k`` Markov background (:class:`MarkovSequenceGenerator`),
2. planted repeats (:class:`RepeatPlanter`): copies of earlier material
   re-inserted downstream with point mutations, mimicking repeat families.

Everything is deterministic given a seed (``numpy.random.Generator``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError

#: Uniforms drawn (and converted to Python floats) per chunk by
#: :meth:`MarkovSequenceGenerator.generate_codes`.
_UNIFORM_CHUNK = 8192


def uniform_random(length, alphabet, seed=0):
    """Uniform i.i.d. string over ``alphabet`` (baseline workload)."""
    if length < 0:
        raise ReproError("length must be non-negative")
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, alphabet.size, size=length)
    return alphabet.decode(codes.tolist())


class MarkovSequenceGenerator:
    """Order-``k`` Markov chain over an alphabet.

    The transition matrix is itself sampled (Dirichlet per context) from
    ``seed``, giving each synthetic genome a distinctive local composition
    the way real chromosomes have GC-content structure.

    Parameters
    ----------
    alphabet:
        An :class:`repro.alphabet.Alphabet`.
    order:
        Markov order ``k`` (0 = i.i.d. with biased frequencies).
    concentration:
        Dirichlet concentration; smaller = more skewed compositions.
    """

    def __init__(self, alphabet, order=2, concentration=2.0, seed=0):
        if order < 0:
            raise ReproError("Markov order must be >= 0")
        self.alphabet = alphabet
        self.order = order
        self.rng = np.random.default_rng(seed)
        size = alphabet.size
        contexts = size ** order
        self._transitions = self.rng.dirichlet(
            [concentration] * size, size=contexts
        )
        self._cum = np.cumsum(self._transitions, axis=1)
        self._size = size

    def generate_codes(self, length):
        """Generate ``length`` integer codes.

        Each code is the first cumulative-row entry above one uniform
        draw (``bisect_right``, the rule of ``searchsorted(side=
        "right")``), read as Python floats a chunk at a time: the codes
        are the same for a seed as a per-character numpy loop's, at a
        fraction of its cost.
        """
        if length < 0:
            raise ReproError("length must be non-negative")
        size = self._size
        top = size - 1
        order = self.order
        out = np.empty(length, dtype=np.int64)
        context = 0
        context_mod = size ** order if order else 1
        rows = self._cum.tolist()
        for start in range(0, length, _UNIFORM_CHUNK):
            stop = min(start + _UNIFORM_CHUNK, length)
            codes = []
            append = codes.append
            for u in self.rng.random(stop - start).tolist():
                code = bisect_right(rows[context], u)
                if code > top:
                    code = top
                append(code)
                if order:
                    context = (context * size + code) % context_mod
            out[start:stop] = codes
        return out

    def generate(self, length):
        """Generate a text string of ``length`` characters."""
        return self.alphabet.decode(self.generate_codes(length).tolist())


@dataclass
class RepeatPlanter:
    """Re-inserts mutated copies of earlier sequence downstream.

    Parameters
    ----------
    repeat_fraction:
        Fraction of the final sequence length produced by repeat copies
        rather than fresh background (human chromosomes are ~50 %
        repetitive; bacterial genomes less, ~10-15 %).
    family_length_range:
        (lo, hi) length of each repeat unit copied.
    mutation_rate:
        Per-character probability of a point substitution in a copy.
    tandem_probability:
        Probability a planted copy is appended immediately (tandem) rather
        than after more background (interspersed).
    """

    repeat_fraction: float = 0.3
    family_length_range: tuple = (50, 2000)
    mutation_rate: float = 0.02
    tandem_probability: float = 0.25

    def plant(self, background_codes, target_length, alphabet_size, rng):
        """Weave repeats into ``background_codes`` until ``target_length``.

        ``background_codes`` supplies fresh material; copies are drawn
        from the sequence already emitted, so repeats genuinely recur.
        Returns a numpy int64 array of exactly ``target_length`` codes.
        """
        if not 0 <= self.repeat_fraction < 1:
            raise ReproError("repeat_fraction must be in [0, 1)")
        out = []
        emitted = 0
        bg_pos = 0
        background = background_codes
        lo, hi = self.family_length_range

        def take_background(k):
            nonlocal bg_pos
            chunk = background[bg_pos:bg_pos + k]
            bg_pos += len(chunk)
            return chunk

        # Seed with enough background that copies have a source.
        seed_len = min(target_length, max(hi, 1000))
        chunk = take_background(seed_len)
        out.append(chunk)
        emitted += len(chunk)
        flat = None
        while emitted < target_length:
            if rng.random() < self.repeat_fraction:
                if flat is None or flat.shape[0] < emitted:
                    flat = np.concatenate(out)
                unit_len = int(rng.integers(lo, max(lo + 1, hi)))
                unit_len = min(unit_len, flat.shape[0],
                               target_length - emitted)
                if unit_len <= 0:
                    break
                start = int(rng.integers(0, flat.shape[0] - unit_len + 1))
                copy = flat[start:start + unit_len].copy()
                if self.mutation_rate > 0:
                    hits = rng.random(unit_len) < self.mutation_rate
                    n_hits = int(hits.sum())
                    if n_hits:
                        copy[hits] = rng.integers(0, alphabet_size,
                                                  size=n_hits)
                out.append(copy)
                emitted += unit_len
                if rng.random() >= self.tandem_probability:
                    gap = int(rng.integers(20, 500))
                    gap = min(gap, target_length - emitted)
                    if gap > 0:
                        chunk = take_background(gap)
                        if len(chunk) == 0:
                            break
                        out.append(chunk)
                        emitted += len(chunk)
                flat = None
            else:
                step = int(rng.integers(200, 2000))
                step = min(step, target_length - emitted)
                chunk = take_background(step)
                if len(chunk) == 0:
                    break
                out.append(chunk)
                emitted += len(chunk)
        result = np.concatenate(out)[:target_length]
        if result.shape[0] < target_length:
            # Background exhausted (extreme repeat_fraction): tile it.
            reps = -(-target_length // max(1, result.shape[0]))
            result = np.tile(result, reps)[:target_length]
        return result


@dataclass
class SequenceProfile:
    """Full recipe for one synthetic sequence."""

    length: int
    order: int = 2
    concentration: float = 2.0
    repeat_fraction: float = 0.3
    family_length_range: tuple = (50, 2000)
    mutation_rate: float = 0.02
    tandem_probability: float = 0.25

    def realize(self, alphabet, seed=0):
        """Produce the sequence string for this profile."""
        rng = np.random.default_rng(seed)
        markov = MarkovSequenceGenerator(
            alphabet, order=self.order, concentration=self.concentration,
            seed=rng.integers(0, 2**31),
        )
        # One background code per output character: the planter takes
        # it lazily, and repeat copies leave the tail of it unused.
        background = markov.generate_codes(self.length)
        planter = RepeatPlanter(
            repeat_fraction=self.repeat_fraction,
            family_length_range=self.family_length_range,
            mutation_rate=self.mutation_rate,
            tandem_probability=self.tandem_probability,
        )
        codes = planter.plant(background, self.length, alphabet.size, rng)
        return alphabet.decode(codes.tolist())


def generate_dna(length, seed=0, repeat_fraction=0.3):
    """Convenience: genome-like DNA string of ``length`` characters."""
    from repro.alphabet import dna_alphabet

    profile = SequenceProfile(length=length, repeat_fraction=repeat_fraction)
    return profile.realize(dna_alphabet(), seed=seed)


def generate_protein(length, seed=0, repeat_fraction=0.15):
    """Convenience: proteome-like residue string of ``length`` characters."""
    from repro.alphabet import protein_alphabet

    profile = SequenceProfile(
        length=length, repeat_fraction=repeat_fraction,
        family_length_range=(20, 400),
    )
    return profile.realize(protein_alphabet(), seed=seed)
