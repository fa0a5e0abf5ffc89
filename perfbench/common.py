"""Inputs, oracles and load loops shared by the four workloads."""

from __future__ import annotations

import gc
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

from repro.alphabet import alphabet_for, dna_alphabet
from repro.core.index import SpineIndex
from repro.exceptions import ReproError
from repro.sequences import SequenceProfile, corpus_spec

#: Reference length: the HC21 pseudo-genome at 7000 chars per paper-Mbp.
REFERENCE_CHARS = 199_500

BASES = "ACGT"


def reference_text(chars):
    """The repeat-rich HC21 pseudo-genome (repeat fraction 0.45).

    Realized from the corpus recipe directly rather than through
    ``load_corpus_sequence``, which memoizes per process (each set-up
    repeat must pay for generation) and can be redirected to real FASTA
    files by an environment variable.
    """
    spec = corpus_spec("HC21")
    profile = SequenceProfile(length=chars, order=spec.order,
                              repeat_fraction=spec.repeat_fraction,
                              family_length_range=(50, 2000))
    return profile.realize(dna_alphabet(), seed=spec.seed)


def cut(text, rng, low, high, end=None):
    """A substring of ``text[:end]`` with a uniform start and a length
    drawn from ``[low, high]``."""
    end = len(text) if end is None else end
    length = rng.randint(low, high)
    start = rng.randrange(end - length + 1)
    return text[start:start + length]


def point_mutate(pattern, rng):
    """``pattern`` with one position changed to another base."""
    i = rng.randrange(len(pattern))
    base = rng.choice([b for b in BASES if b != pattern[i]])
    return pattern[:i] + base + pattern[i + 1:]


def occurrences(text, pattern, end=None):
    """Every start of ``pattern`` inside ``text[:end]``, by ``str.find``."""
    end = len(text) if end is None else end
    starts = []
    i = text.find(pattern, 0, end)
    while i != -1:
        starts.append(i)
        i = text.find(pattern, i + 1, end)
    return starts


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


#: Duration of :func:`calibration_loop` at the reference speed. Every
#: reported time is a measured wall-clock time multiplied by
#: ``REFERENCE_LOOP_S / (the loop's latest duration)``: shared hosts
#: swing in CPU speed by tens of percent over seconds, and the scaling
#: cancels those swings while keeping times near wall clock.
REFERENCE_LOOP_S = 0.0003
#: Seconds between calibrations during a timed phase.
CALIBRATION_INTERVAL_S = 0.05


def calibration_loop():
    """Seconds one fixed pure-Python loop takes on the host right now."""
    started = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i * i
    return time.perf_counter() - started


class Speed:
    """The host's current speed relative to the reference.

    ``factor`` converts a wall-clock time measured now into
    reference-speed time; :meth:`measure` refreshes it from the best of
    three calibration loops.
    """

    def __init__(self):
        self.factor = 1.0
        self._next = 0.0

    def due(self, now):
        return now >= self._next

    def measure(self):
        best = min(calibration_loop() for _ in range(3))
        self.factor = REFERENCE_LOOP_S / best
        self._next = time.perf_counter() + CALIBRATION_INTERVAL_S
        return self.factor


def timed_build(text, speed, chunk=5_000):
    """``SpineIndex(text)`` built by online extends of ``chunk`` chars,
    calibrating before each; returns the index and the reference-speed
    seconds spent in ``extend``. Objects alive before the build are
    frozen out of garbage collection meanwhile, so the time does not
    depend on what else the process holds."""
    gc.collect()
    gc.freeze()
    try:
        index = SpineIndex(alphabet=alphabet_for(text))
        seconds = 0.0
        for i in range(0, len(text), chunk):
            factor = speed.measure()
            started = time.perf_counter()
            index.extend(text[i:i + chunk])
            seconds += (time.perf_counter() - started) * factor
    finally:
        gc.unfreeze()
    return index, seconds


#: One op of a timed phase, in reference-speed seconds; ``lag`` is the
#: gap since the previous op ended.
Sample = namedtuple("Sample", "k kind read latency lag failed")


@dataclass
class Phase:
    """One timed phase: per-op samples and the answers to verify.

    ``samples`` holds one :data:`Sample` per op; ``answers`` holds
    ``(pool index, kept answer)`` for every completed op; ``errors``
    counts failed ops by exception name. ``active_s`` is the
    reference-speed time spent on ops.
    """

    samples: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    active_s: float = 0.0
    errors: dict = field(default_factory=dict)

    @property
    def ops(self):
        return len(self.samples)

    def failed(self):
        return sum(self.errors.values())


def closed_loop(workload, seconds, speed, recorder=None):
    """One client issuing the workload's op pool back to back.

    Calibrations and the disk workload's between-round file copies run
    between ops and are left out of every time. An op that raises a
    library error is counted as failed by exception name.
    """
    pool = workload.pool
    size = len(pool)
    phase = Phase()
    samples = phase.samples
    answers = phase.answers
    record = workload.record
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    prev_end = start
    i = 0
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        k = i % size
        if workload.starts_round(k) or speed.due(now):
            if workload.starts_round(k):
                workload.start_round(k)
            if speed.due(now):
                speed.measure()
            prev_end = time.perf_counter()
        kind, read, payload = pool[k]
        factor = speed.factor
        t0 = time.perf_counter()
        failed = False
        try:
            if recorder is None:
                answer = workload.execute(kind, payload)
            else:
                with recorder.request("op." + kind, factor):
                    answer = workload.execute(kind, payload)
        except ReproError as exc:
            name = type(exc).__name__
            phase.errors[name] = phase.errors.get(name, 0) + 1
            failed = True
        t1 = time.perf_counter()
        latency = (t1 - t0) * factor
        lag = (t0 - prev_end) * factor
        samples.append(Sample(k, kind, read, latency, lag, failed))
        if not failed:
            answers.append((k, record(k, answer)))
        phase.active_s += lag + latency
        prev_end = t1
        i += 1
    return phase
