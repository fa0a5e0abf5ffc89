"""Per-experiment workload definitions and scaling.

The global knob is ``scale`` — synthetic characters per paper-Mbp (see
:mod:`repro.sequences.corpus`). Experiments pick defaults that keep the
whole benchmark suite runnable in minutes of pure Python; the
``REPRO_SCALE_FACTOR`` environment variable multiplies every default
(e.g. ``REPRO_SCALE_FACTOR=4`` for a longer, higher-fidelity run).

The paper's memory-budget narrative (ST cannot index HC19 in 1 GB) is
reproduced by scaling the 1 GB budget with the corpus: the budget in
bytes is ``1 GiB * scale / 1e6``, i.e. exactly proportional to how much
the strings were shrunk.
"""

from __future__ import annotations

import os
import zlib

from repro.sequences import load_corpus_sequence

#: Default chars-per-Mbp for the in-memory experiments.
MEMORY_SCALE = 17_000
#: Default for the streaming-match experiments (two big strings each).
MATCH_SCALE = 8_000
#: Default for the disk experiments (every access is paged).
DISK_SCALE = 1_500

#: Genome pairs of Table 5 (data sequence, query sequence).
TABLE5_PAIRS = [("ECO", "CEL"), ("CEL", "HC21"), ("HC21", "CEL"),
                ("HC21", "HC19"), ("HC19", "HC21")]
#: Genome pairs of Table 6.
TABLE6_PAIRS = [("CEL", "ECO"), ("HC21", "ECO"), ("HC21", "CEL")]
#: Genome pairs of Table 7.
TABLE7_PAIRS = [("CEL", "ECO"), ("HC21", "ECO"), ("HC21", "CEL"),
                ("HC19", "HC21")]
#: Genomes of Figures 6/7/8 and Tables 3/4.
GENOMES = ["ECO", "CEL", "HC21", "HC19"]
DISK_GENOMES = ["ECO", "CEL", "HC21"]
PROTEOMES = ["ECO-R", "YEAST-R", "DROS-R"]

#: Matching threshold of the Section 4 example, kept at the paper's
#: value (maximal matches shorter than this are not reported).
MATCH_THRESHOLD = 6

PAPER_RAM_BYTES = 1 << 30  # the paper machine's 1 GB


def scale_factor():
    """Multiplier from the environment (default 1)."""
    try:
        return float(os.environ.get("REPRO_SCALE_FACTOR", "1"))
    except ValueError:
        return 1.0


def effective_scale(default, scale=None):
    """Resolve an experiment's scale: explicit arg beats env beats
    default."""
    if scale is not None:
        return int(scale)
    return max(1, int(default * scale_factor()))


def memory_budget_bytes(scale):
    """The paper's 1 GB RAM budget, shrunk proportionally."""
    return PAPER_RAM_BYTES * scale / 1_000_000.0


def genome(name, scale):
    """Materialize a corpus sequence at ``scale``."""
    return load_corpus_sequence(name, scale=scale)


#: Fraction of the query covered by homologous (mutated-copy) segments
#: in cross-sequence workloads.
HOMOLOGY_SHARE = 0.15
#: Per-character substitution rate inside a homologous segment
#: (~80-85 % identity, typical of conserved coding regions).
HOMOLOGY_MUTATION = 0.15

_PAIR_CACHE = {}


def genome_pair(data_name, query_name, scale,
                share=HOMOLOGY_SHARE, mutation=HOMOLOGY_MUTATION):
    """A (data, query) pair with planted cross-sequence homology.

    The paper streams real genomes against each other; related organisms
    share conserved segments, and those deep matches are what exercise
    the suffix-shortening machinery (Tables 5-7). Independent synthetic
    genomes share only chance ~log-length matches, so we splice mutated
    copies of data segments into the query: ``share`` of the query
    length becomes homologous segments at ``1 - mutation`` identity.
    Deterministic per (names, scale).
    """
    import numpy as np

    key = (data_name, query_name, scale, share, mutation)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    data = genome(data_name, scale)
    query = list(genome(query_name, scale))
    # A digest, not the built-in ``hash``: string hashes are salted
    # per process, and the pair must not change from run to run.
    rng = np.random.default_rng(
        zlib.crc32(repr((data_name, query_name, scale)).encode()))
    alphabet = sorted(set(data))
    target = int(len(query) * share)
    planted = 0
    while planted < target:
        seg_len = int(rng.integers(40, 400))
        seg_len = min(seg_len, target - planted, len(data) - 1,
                      len(query) - 1)
        if seg_len <= 0:
            break
        src = int(rng.integers(0, len(data) - seg_len))
        dst = int(rng.integers(0, len(query) - seg_len))
        segment = list(data[src:src + seg_len])
        hits = rng.random(seg_len) < mutation
        for i in range(seg_len):
            if hits[i]:
                segment[i] = alphabet[int(rng.integers(0, len(alphabet)))]
        query[dst:dst + seg_len] = segment
        planted += seg_len
    result = (data, "".join(query))
    _PAIR_CACHE[key] = result
    return result
