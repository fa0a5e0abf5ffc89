"""Bounded retries with exponential backoff and a jitter cap.

The policy object for transient faults on the storage read path.
Separating the *policy* (how many attempts, which exceptions, how long
to wait) from the *site* (the pager's read loop) lets chaos tests run
the same site under different budgets and lets callers opt
checksum-level corruption (:class:`~repro.exceptions.CorruptPageError`)
into retries where the medium plausibly returns different bytes on a
re-read, without changing the default.

The default policy deliberately retries **only** ``OSError``: a failed
checksum is usually a durable fact about the bytes on disk, and
retrying it would double-count ``checksum_failures`` against the
established accounting (one corrupt read == one recorded failure).

Backoff is ``base * 2**(attempt-1)`` capped at ``max_backoff``, with
up to ``jitter`` fraction of the delay added from a per-policy PRNG so
a pile-up of concurrent readers does not re-collide in lockstep.
``CrashInjected`` (a ``BaseException``) from the failpoint machinery
is never caught — crash simulation must stay un-absorbable, exactly as
PR 4's recovery tests rely on.
"""

from __future__ import annotations

import random
import time

from repro.exceptions import RetryExhaustedError

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Retry a callable on transient faults, bounded and backed off.

    Parameters
    ----------
    retries:
        Maximum number of *re*-tries after the first attempt; total
        attempts are ``retries + 1``. ``0`` disables retrying while
        keeping the structured :class:`RetryExhaustedError` envelope.
    base_backoff:
        Sleep before the first retry, in seconds; doubles per retry.
    max_backoff:
        Upper bound on any single sleep (pre-jitter).
    jitter:
        Fraction of the computed delay added at random (``0.25`` means
        up to +25%). Deterministic per-policy via ``seed``.
    retryable:
        Exception classes worth retrying. Everything else propagates
        immediately, un-wrapped.
    clock / sleep:
        Injectable for tests; ``sleep`` receives the full post-jitter
        delay.
    """

    __slots__ = ("retries", "base_backoff", "max_backoff", "jitter",
                 "retryable", "clock", "sleep", "_rng")

    def __init__(self, retries=3, base_backoff=0.002, max_backoff=0.1,
                 jitter=0.25, retryable=(OSError,), clock=time.monotonic,
                 sleep=time.sleep, seed=None):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if base_backoff < 0 or max_backoff < 0:
            raise ValueError("backoff bounds must be >= 0")
        if not 0 <= jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.retries = retries
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.retryable = tuple(retryable)
        self.clock = clock
        self.sleep = sleep
        self._rng = random.Random(seed)

    def backoff(self, attempt):
        """Delay before retry number ``attempt`` (1-based), jittered."""
        delay = min(self.base_backoff * (1 << (attempt - 1)),
                    self.max_backoff)
        if self.jitter:
            delay += delay * self.jitter * self._rng.random()
        return delay

    def call(self, fn, *args, site="storage", cancel=None, on_retry=None):
        """Run ``fn(*args)`` under this policy.

        Retryable faults are swallowed until the budget is spent, with
        a backoff sleep between attempts (clipped to the remaining
        deadline when ``cancel`` carries one, and skipped entirely
        once the token is expired — a late answer is worse than a fast
        structured error). ``on_retry(attempt, exc)`` fires before
        each sleep — the pager uses it to keep its historical
        ``read_retries`` accounting.

        On exhaustion raises :class:`RetryExhaustedError` with the
        final fault chained as ``__cause__`` and ``attempts``/``site``
        attached. ``site`` is formatted with ``args``
        (``str.format``) only then, so a per-call label such as
        ``"page {} read"`` costs nothing on the success path.
        """
        attempt = 0
        while True:
            if cancel is not None:
                cancel.poll()
            try:
                return fn(*args)
            except self.retryable as exc:
                attempt += 1
                if attempt > self.retries:
                    site = site.format(*args)
                    raise RetryExhaustedError(
                        f"{site} failed after {attempt} attempt(s): {exc}",
                        attempts=attempt, site=site) from exc
                from repro import obs
                registry = obs.get_registry()
                if registry.enabled:
                    registry.counter("resilience.retries").inc()
                if on_retry is not None:
                    on_retry(attempt, exc)
                delay = self.backoff(attempt)
                if cancel is not None:
                    remaining = cancel.remaining()
                    if remaining is not None:
                        delay = min(delay, max(remaining, 0.0))
                if delay > 0:
                    self.sleep(delay)

    def __repr__(self):
        names = ",".join(cls.__name__ for cls in self.retryable)
        return (f"RetryPolicy(retries={self.retries}, "
                f"base_backoff={self.base_backoff}, "
                f"max_backoff={self.max_backoff}, jitter={self.jitter}, "
                f"retryable=({names}))")
