"""Deadlines and the cooperative cancellation token.

A :class:`Deadline` is an absolute point on a monotonic clock; a
:class:`CancellationToken` wraps a deadline (and optionally a shutdown
event) into the object the traversal loops actually poll. The split
matters: deadlines are *values* that can be rebudgeted and propagated
(the sharded fan-out hands each shard the remaining budget), while the
token carries the amortization state and the raising behaviour.

Cost discipline mirrors the metrics registry: the hot loops in
:mod:`repro.core.batch` and :mod:`repro.core.search` only ever call
:meth:`CancellationToken.checkpoint`, which is an integer decrement on
all but every ``stride``-th call. A clock read (``time.monotonic``)
happens once per stride, so a stride of 64 over a traversal of a few
thousand steps costs tens of clock reads, not thousands.

Cancellation is cooperative and *prompt but not preemptive*: a query
stops at the next checkpoint after expiry, so the latency bound is the
deadline plus one stride's worth of loop iterations plus at most one
page fault already in flight.
"""

from __future__ import annotations

import time

from repro.exceptions import DeadlineExceededError, ServiceClosedError

__all__ = ["CancellationToken", "Deadline", "NEVER_CANCELLED"]

#: Default number of ``checkpoint()`` calls between real clock polls.
DEFAULT_STRIDE = 64


class Deadline:
    """An absolute expiry on a monotonic clock.

    Construct with :meth:`after` (relative budget) or directly with an
    absolute ``at`` reading. ``clock`` is injectable for tests —
    everything downstream (token, breaker) inherits the same
    convention, so chaos tests never need to sleep to move time.
    """

    __slots__ = ("at", "clock")

    def __init__(self, at, clock=time.monotonic):
        self.at = at
        self.clock = clock

    @classmethod
    def after(cls, seconds, clock=time.monotonic):
        """A deadline ``seconds`` from now on ``clock``."""
        if seconds is None:
            raise ValueError("deadline budget must be a number, not None")
        if seconds < 0:
            raise ValueError(f"deadline budget must be >= 0, got {seconds}")
        return cls(clock() + seconds, clock)

    def remaining(self):
        """Seconds until expiry (negative once past it)."""
        return self.at - self.clock()

    def expired(self):
        """True once the clock has passed the deadline."""
        return self.clock() >= self.at

    def __repr__(self):
        return f"Deadline(remaining={self.remaining():.4f}s)"


class CancellationToken:
    """The object scan loops poll to notice expiry or shutdown.

    Parameters
    ----------
    deadline:
        Optional :class:`Deadline`; when it expires, :meth:`poll`
        raises :class:`~repro.exceptions.DeadlineExceededError`.
    shutdown:
        Optional ``threading.Event``; once set, :meth:`poll` raises
        :class:`~repro.exceptions.ServiceClosedError`. This is how
        :meth:`repro.serve.QueryService.close` cancels in-flight
        queries within its bounded shutdown timeout.
    op:
        Label carried on the raised error and the trace event
        (``"find_all"``, ``"batch"``, ...).
    stride:
        Checkpoint amortization factor — one real :meth:`poll` per
        ``stride`` calls to :meth:`checkpoint`.

    The token is intended for a single query on a single thread; the
    batch engine creates one token per worker from the shared deadline
    rather than sharing one counter across threads.
    """

    __slots__ = ("deadline", "shutdown", "op", "stride", "_countdown")

    def __init__(self, deadline=None, shutdown=None, op="query",
                 stride=DEFAULT_STRIDE):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.deadline = deadline
        self.shutdown = shutdown
        self.op = op
        self.stride = stride
        self._countdown = stride

    def child(self, op=None):
        """A fresh token sharing this one's deadline/shutdown but with
        its own amortization counter (one per worker thread)."""
        return CancellationToken(self.deadline, self.shutdown,
                                 op if op is not None else self.op,
                                 self.stride)

    def remaining(self):
        """Seconds left on the deadline (``None`` when unbounded)."""
        return None if self.deadline is None else self.deadline.remaining()

    def expired(self):
        """Non-raising check (used by scatter-gather bookkeeping)."""
        if self.shutdown is not None and self.shutdown.is_set():
            return True
        return self.deadline is not None and self.deadline.expired()

    def poll(self):
        """Raise if cancelled; otherwise a no-op.

        Raises :class:`~repro.exceptions.ServiceClosedError` on
        shutdown (checked first: a closing service should not dress
        its own shutdown up as the caller's deadline) and
        :class:`~repro.exceptions.DeadlineExceededError` on expiry,
        recording the ``resilience.deadline.hits`` counter and a
        ``deadline-exceeded`` trace event on the way out.
        """
        if self.shutdown is not None and self.shutdown.is_set():
            raise ServiceClosedError(
                f"{self.op} cancelled: service shutting down")
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            self._on_deadline_hit()
            raise DeadlineExceededError(
                f"{self.op} exceeded its deadline "
                f"(over by {-deadline.remaining():.4f}s)",
                op=self.op)

    def checkpoint(self):
        """Amortized :meth:`poll` — the call hot loops make."""
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.stride
            self.poll()

    def _on_deadline_hit(self):
        from repro import obs
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("resilience.deadline.hits").inc()
        span = obs.active_span()
        if span is not None:
            span.event("deadline-exceeded", op=self.op)

    def __repr__(self):
        parts = [f"op={self.op!r}"]
        if self.deadline is not None:
            parts.append(f"remaining={self.deadline.remaining():.4f}s")
        if self.shutdown is not None:
            parts.append(f"shutdown={'set' if self.shutdown.is_set() else 'clear'}")
        return f"CancellationToken({', '.join(parts)})"


class _NeverCancelled(CancellationToken):
    """Shared token that never cancels — lets call sites keep an
    unconditional ``cancel.checkpoint()`` without a ``None`` branch
    when they prefer that shape. The scan loops themselves branch on
    ``cancel is None`` instead, keeping the common case untouched."""

    __slots__ = ()

    def __init__(self):
        super().__init__()

    def poll(self):
        pass

    def checkpoint(self):
        pass

    def expired(self):
        return False


#: The shared no-op token.
NEVER_CANCELLED = _NeverCancelled()
