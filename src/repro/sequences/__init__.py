"""Sequence substrate: synthetic genomes/proteomes, FASTA I/O, named corpus.

The paper benchmarks on real genomes fetched from public archives. This
environment has no network access and pure-Python index construction does
not reach 10^7-10^8 characters in reasonable time, so the corpus module
provides deterministic *pseudo-genomes*: synthetic strings whose repeat
structure mimics genomic DNA (the property that actually drives every
quantity the paper measures), at scaled-down lengths that keep the paper's
length ratios. See DESIGN.md section 2 for the substitution rationale.
"""

from repro.sequences.generator import (
    MarkovSequenceGenerator,
    RepeatPlanter,
    SequenceProfile,
    generate_dna,
    generate_protein,
    uniform_random,
)
from repro.sequences.fasta import read_fasta, write_fasta
from repro.sequences.mutations import (
    derive_sequence,
    indel_mutate,
    point_mutate,
    rearrange,
)
from repro.sequences.corpus import (
    CORPUS_PROFILES,
    CorpusSpec,
    corpus_names,
    corpus_spec,
    load_corpus_sequence,
)

__all__ = [
    "MarkovSequenceGenerator",
    "RepeatPlanter",
    "SequenceProfile",
    "generate_dna",
    "generate_protein",
    "uniform_random",
    "read_fasta",
    "write_fasta",
    "derive_sequence",
    "indel_mutate",
    "point_mutate",
    "rearrange",
    "CORPUS_PROFILES",
    "CorpusSpec",
    "corpus_names",
    "corpus_spec",
    "load_corpus_sequence",
]
