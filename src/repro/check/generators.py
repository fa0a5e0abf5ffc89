"""Deterministic adversarial case generation for the differential
fuzzer.

A :class:`Scenario` is a fully explicit, JSON-serializable description
of one fuzz case: the alphabet, the text and how it is fed to the
layers (build cuts, checkpoints, save/load round trips, shard splits),
and the query patterns. Scenarios are produced by
:func:`generate_scenario` from a caller-owned ``random.Random`` — the
generator consumes randomness in a fixed order, so one seed always
yields the same case stream — and replayed byte-identically from their
dict form, which is what the repro files store.

The text families deliberately chase SPINE's failure modes: tandem and
interspersed repeats (deep extrib chains, PT/PRT threshold decisions),
tiny and unary alphabets (maximal rib sharing), order-``k`` Markov
pseudo-genomes (realistic LEL distributions), and the degenerate floor
(empty text, single characters, whole-text and longer-than-text
patterns).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict


#: Alphabet menu: (symbols, case_insensitive). Small alphabets dominate
#: because they maximize structure sharing (and therefore label traffic).
_ALPHABETS = [
    ("a", False),
    ("ab", False),
    ("AB", True),
    ("abc", False),
    ("ACGT", True),
    ("acgt", False),
    ("ACDEFGHIKLMNPQRSTVWY", False),
]

_LAYER_NAMES = ("memory", "packed", "disk", "shard")


@dataclass
class Scenario:
    """One explicit fuzz case (everything needed to replay it)."""

    alphabet: str = "ab"
    case_insensitive: bool = False
    text: str = ""
    #: Ascending prefix lengths; segment ``k`` is
    #: ``text[cuts[k-1]:cuts[k]]`` (``cuts[-1] == len(text)``). The
    #: first cut is the build input, the rest arrive via ``extend``.
    cuts: list = field(default_factory=list)
    layers: list = field(default_factory=lambda: list(_LAYER_NAMES))
    patterns: list = field(default_factory=list)
    # disk layer knobs
    page_size: int = 4096
    buffer_pages: int = 8
    checkpoint: bool = False      # checkpoint after each segment
    reopen: bool = False          # checkpoint + close + open mid-stream
    #: Simulated kill -9 between an extend and the next checkpoint,
    #: then reopen: the disk layer must recover the un-checkpointed
    #: extends from its WAL and still agree with every other layer.
    crash_reopen: bool = False
    # memory layer knobs
    save_load: bool = False       # serialize round trip before querying
    # shard layer knobs
    shards: int = 2
    max_pattern_len: int = 16
    split_threshold: int = None
    shard_layer: str = "memory"
    # query knobs
    batch_threads: int = 1
    deep_verify: bool = False
    #: Optional synthetic fault (see ``repro.check.harness``); used by
    #: the minimizer tests and the ``repro fuzz --inject`` self-check.
    injection: dict = None

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def segments(self):
        """The text pieces as fed to build/extend."""
        if not self.cuts:
            return [self.text]
        out = []
        prev = 0
        for cut in self.cuts:
            out.append(self.text[prev:cut])
            prev = cut
        return out


def _text_families(rng, symbols):
    """Pick a text family and materialize it. Pure ``rng`` driven."""
    k = len(symbols)
    family = rng.choice(
        ["empty", "single", "unary", "tandem", "interspersed",
         "markov", "uniform", "fibonacci", "paper"])
    if family == "empty":
        return ""
    if family == "single":
        return rng.choice(symbols)
    if family == "unary":
        return rng.choice(symbols) * rng.randrange(2, 40)
    if family == "tandem":
        unit = "".join(rng.choice(symbols)
                       for _ in range(rng.randrange(1, 6)))
        copies = rng.randrange(2, 12)
        slop = "".join(rng.choice(symbols)
                       for _ in range(rng.randrange(0, 4)))
        return (unit * copies + slop)[:200]
    if family == "interspersed":
        # A short motif replanted into random background at random
        # offsets — the classic extrib-chain workload.
        motif = "".join(rng.choice(symbols)
                        for _ in range(rng.randrange(2, 8)))
        background = ["".join(rng.choice(symbols)
                              for _ in range(rng.randrange(0, 7)))
                      for _ in range(rng.randrange(2, 9))]
        return motif.join(background)[:200] or motif
    if family == "markov" and k > 1:
        from repro.alphabet import Alphabet
        from repro.sequences.generator import MarkovSequenceGenerator

        gen = MarkovSequenceGenerator(
            Alphabet(symbols), order=rng.randrange(1, 3),
            concentration=rng.choice([0.3, 1.0, 3.0]),
            seed=rng.randrange(1 << 30))
        return gen.generate(rng.randrange(5, 120))
    if family == "fibonacci" and k > 1:
        # Substitution system a->ab, b->a: dense repeat structure with
        # no two equal adjacent blocks.
        a, b = symbols[0], symbols[1]
        word = a
        while len(word) < rng.randrange(5, 90):
            word = word.replace(a, a + "\x00").replace(b, a)
            word = word.replace("\x00", b)
        return word[:120]
    if family == "paper" and set("ac") <= set(symbols):
        return "aaccacaaca"
    return "".join(rng.choice(symbols)
                   for _ in range(rng.randrange(1, 80)))


def _pattern_pool(rng, text, symbols, case_insensitive, cuts):
    """Adversarial query patterns for ``text``."""
    patterns = [""]
    n = len(text)
    if n:
        patterns.append(text)                       # whole text
        patterns.append(text + rng.choice(symbols))  # longer than text
    else:
        patterns.append(rng.choice(symbols))
    for _ in range(rng.randrange(3, 9)):
        kind = rng.choice(["substring", "boundary", "random", "run",
                           "almost", "foreign"])
        if kind == "substring" and n:
            i = rng.randrange(n)
            j = rng.randrange(i + 1, n + 1)
            patterns.append(text[i:j])
        elif kind == "boundary" and n and cuts:
            # Straddle a build/extend cut (and, for the sharded layer,
            # often a shard boundary too).
            cut = rng.choice(cuts)
            i = max(0, cut - rng.randrange(1, 6))
            j = min(n, cut + rng.randrange(1, 6))
            if i < j:
                patterns.append(text[i:j])
        elif kind == "run":
            patterns.append(rng.choice(symbols) * rng.randrange(1, 12))
        elif kind == "almost" and n:
            # A substring with one character substituted.
            i = rng.randrange(n)
            j = rng.randrange(i + 1, min(n, i + 12) + 1)
            sub = list(text[i:j])
            sub[rng.randrange(len(sub))] = rng.choice(symbols)
            patterns.append("".join(sub))
        elif kind == "foreign":
            base = (text[rng.randrange(n):][:4] if n
                    else rng.choice(symbols))
            patterns.append(base + rng.choice("zZ9!#"))
        else:
            patterns.append("".join(
                rng.choice(symbols)
                for _ in range(rng.randrange(1, 10))))
    if case_insensitive and n:
        i = rng.randrange(n)
        j = rng.randrange(i + 1, n + 1)
        patterns.append(text[i:j].swapcase())
    # Dedup preserving order (keeps replay output readable).
    seen = set()
    out = []
    for p in patterns:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def generate_scenario(rng, layers=None, max_text=None, injection=None):
    """Draw one :class:`Scenario` from ``rng`` (deterministic)."""
    layers = list(layers) if layers else list(_LAYER_NAMES)
    for name in layers:
        if name not in _LAYER_NAMES:
            raise ValueError(f"unknown layer {name!r}")
    symbols, ci = rng.choice(_ALPHABETS)
    text = _text_families(rng, symbols)
    if max_text is not None:
        text = text[:max_text]
    n = len(text)

    # Build/extend cuts: 0-3 extends, biased toward cutting near the
    # end (freshly-extended-unsaved is a satellite bug class).
    cuts = []
    if n and rng.random() < 0.75:
        pieces = rng.randrange(2, 5)
        points = sorted(rng.sample(range(1, n + 1), min(pieces, n)))
        if not points or points[-1] != n:
            points.append(n)
        cuts = points
    else:
        cuts = [n]

    shards = rng.randrange(1, 5)
    # Usually cap above the longest pattern we will ask; sometimes
    # deliberately below it to exercise the SearchError path.
    max_pattern_len = (rng.randrange(1, 6) if rng.random() < 0.2
                       else rng.randrange(8, 40))
    scenario = Scenario(
        alphabet=symbols,
        case_insensitive=ci,
        text=text,
        cuts=cuts,
        layers=layers,
        # 512 B still holds the widest RT row of the largest alphabet
        # and makes even short texts span several LT pages.
        page_size=rng.choice([512, 1024, 4096]),
        buffer_pages=rng.choice([4, 8, 16]),
        checkpoint=rng.random() < 0.3,
        reopen=rng.random() < 0.25,
        crash_reopen=rng.random() < 0.2,
        save_load=rng.random() < 0.3,
        shards=shards,
        max_pattern_len=max_pattern_len,
        split_threshold=(rng.choice([3, 5, 9, 17])
                         if rng.random() < 0.3 else None),
        shard_layer=("disk" if rng.random() < 0.25 else "memory"),
        batch_threads=rng.choice([1, 1, 2]),
        deep_verify=n <= 48,
        injection=injection,
    )
    scenario.patterns = _pattern_pool(rng, text, symbols, ci, cuts)
    return scenario
