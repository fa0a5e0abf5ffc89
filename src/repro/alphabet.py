"""Alphabets for string indexing.

SPINE stores one character label (CL) per vertebra and per rib; the paper
codes DNA characters in 2 bits and protein residues in 5 bits (Section 5).
An :class:`Alphabet` maps between text characters and small integer codes,
and knows how many bits a code needs, which feeds the space models of
:mod:`repro.core.layout`.

Generalized (multi-string) indexes need a *separator* symbol that can never
appear in queries; :meth:`Alphabet.with_separator` derives an extended
alphabet carrying one.
"""

from __future__ import annotations

from repro.exceptions import AlphabetError

#: Character used for the generalized-index separator in decoded text.
SEPARATOR_CHAR = "#"


class Alphabet:
    """A finite, ordered character set with integer coding.

    Parameters
    ----------
    symbols:
        The characters of the alphabet, in code order (code of
        ``symbols[i]`` is ``i``). Must be unique.
    name:
        Human-readable name used in reports.
    case_insensitive:
        When true, :meth:`encode` folds input to upper case first.
    """

    def __init__(self, symbols, name="generic", case_insensitive=False):
        symbols = str(symbols)
        if len(set(symbols)) != len(symbols):
            raise AlphabetError(f"duplicate symbols in alphabet {name!r}")
        if not symbols:
            raise AlphabetError("alphabet must contain at least one symbol")
        self.name = name
        self.symbols = symbols
        self.case_insensitive = case_insensitive
        self._char_to_code = {ch: i for i, ch in enumerate(symbols)}
        if case_insensitive:
            for i, ch in enumerate(symbols):
                self._char_to_code.setdefault(ch.lower(), i)
        #: Code reserved for a separator, or ``None`` when there is none.
        self.separator_code = None

    @property
    def size(self):
        """Number of symbols, excluding any separator."""
        n = len(self.symbols)
        if self.separator_code is not None:
            n -= 1
        return n

    @property
    def total_size(self):
        """Number of symbols including the separator, if any."""
        return len(self.symbols)

    @property
    def bits_per_symbol(self):
        """Bits needed to store one character label."""
        return max(1, (self.total_size - 1).bit_length())

    def encode(self, text):
        """Encode ``text`` to a list of integer codes.

        Raises
        ------
        AlphabetError
            If a character of ``text`` is not in the alphabet.
        """
        if self.case_insensitive:
            text = text.upper()
        try:
            return [self._char_to_code[ch] for ch in text]
        except KeyError as exc:
            raise AlphabetError(
                f"character {exc.args[0]!r} not in alphabet {self.name!r}"
            ) from None

    def try_encode(self, text):
        """Encode ``text``, or ``None`` when any character falls outside
        the alphabet.

        A pattern containing a foreign character cannot occur in any
        string over this alphabet, so the search layers treat ``None``
        as a clean miss instead of propagating :class:`AlphabetError`.
        """
        if self.case_insensitive:
            text = text.upper()
        get = self._char_to_code.get
        codes = []
        for ch in text:
            code = get(ch)
            if code is None:
                return None
            codes.append(code)
        return codes

    def encode_char(self, ch):
        """Encode a single character."""
        if self.case_insensitive:
            ch = ch.upper()
        try:
            return self._char_to_code[ch]
        except KeyError:
            raise AlphabetError(
                f"character {ch!r} not in alphabet {self.name!r}"
            ) from None

    def decode(self, codes):
        """Decode an iterable of integer codes back to a string."""
        try:
            return "".join(map(self.symbols.__getitem__, codes))
        except IndexError:
            raise AlphabetError(
                f"code out of range for alphabet {self.name!r}"
            ) from None

    def __contains__(self, ch):
        if self.case_insensitive:
            ch = ch.upper()
        return ch in self._char_to_code

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.symbols == other.symbols
            and self.separator_code == other.separator_code
        )

    def __hash__(self):
        return hash((self.symbols, self.separator_code))

    def __repr__(self):
        return f"Alphabet({self.symbols!r}, name={self.name!r})"

    def with_separator(self):
        """Return a copy extended with a separator symbol.

        The separator is used by generalized indexes to join multiple
        strings; it never appears in queries. Returns ``self`` when a
        separator is already present.
        """
        if self.separator_code is not None:
            return self
        if SEPARATOR_CHAR in self._char_to_code:
            raise AlphabetError(
                f"alphabet {self.name!r} already uses {SEPARATOR_CHAR!r}; "
                "cannot reserve it as a separator"
            )
        extended = Alphabet(
            self.symbols + SEPARATOR_CHAR,
            name=f"{self.name}+sep",
            case_insensitive=self.case_insensitive,
        )
        extended.separator_code = len(self.symbols)
        return extended


def dna_alphabet():
    """The 4-letter DNA alphabet (A, C, G, T); 2 bits per character label."""
    return Alphabet("ACGT", name="dna", case_insensitive=True)


def protein_alphabet():
    """The 20-letter amino-acid alphabet; 5 bits per character label."""
    return Alphabet("ACDEFGHIKLMNPQRSTVWY", name="protein",
                    case_insensitive=True)


def binary_alphabet():
    """Two-letter alphabet, handy for adversarial tests."""
    return Alphabet("ab", name="binary")


def alphabet_for(text, name="inferred"):
    """Build the smallest alphabet covering ``text`` (sorted symbol order)."""
    if not text:
        raise AlphabetError("cannot infer an alphabet from empty text")
    return Alphabet("".join(sorted(set(text))), name=name)
