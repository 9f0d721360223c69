"""Retry policy and quarantine records for fault-tolerant execution.

One operator exception must not kill a partition's whole micro-batch:
transient failures (a flaky broadcast fetch, a briefly unavailable
resource) are healed by re-executing the operator for that record, and
records that keep failing are *quarantined* — wrapped with failure
metadata and routed to a dead-letter sink — so the batch completes and
the service degrades gracefully instead of losing data.

The :class:`RetryPolicy` is deliberately deterministic:

* backoff is exponential with a **jitter hook** — a pure function
  ``(attempt, delay) -> delay`` the caller injects; there is no hidden
  randomness, so tests replay identical schedules;
* all waiting goes through an injectable clock (see
  :mod:`repro.faults.clock`), so tests assert exact backoff sequences
  without sleeping;
* the per-attempt timeout is *measured*, not preemptive: the simulator
  runs operators in-thread, so a slow attempt is detected after it
  returns (its elapsed clock time exceeded the budget) and treated as a
  failed attempt.  Slow-call fault injection advances the same clock,
  which makes timeout paths testable in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from ..faults.clock import SystemClock
from .records import StreamRecord

__all__ = ["RetryPolicy", "QuarantinedRecord"]


@dataclass
class RetryPolicy:
    """How a streaming context re-executes failing operator calls.

    Parameters
    ----------
    max_attempts:
        Total attempts per operator invocation (1 = no retries).
    base_delay_seconds / backoff_multiplier / max_delay_seconds:
        Exponential backoff: attempt *k*'s failure waits
        ``base * multiplier**(k-1)`` seconds, capped at the maximum.
    jitter:
        Optional deterministic hook ``(attempt, delay) -> delay``
        applied after the exponential schedule.  Inject seeded
        randomness here if desired; the engine itself never calls a
        random source.
    per_attempt_timeout_seconds:
        An attempt whose measured duration exceeds this budget counts as
        a failure even if it returned a value (cooperative timeout; see
        module docstring).
    retryable:
        Exception classes worth retrying; anything else propagates
        immediately.
    clock:
        Object with ``monotonic()`` and ``sleep(seconds)``; defaults to
        the wall clock.  Pass a
        :class:`~repro.faults.clock.ManualClock` for sleep-free tests.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_delay_seconds: float = 5.0
    jitter: Optional[Callable[[int, float], float]] = None
    per_attempt_timeout_seconds: Optional[float] = None
    retryable: Tuple[type, ...] = (Exception,)
    clock: Any = field(default_factory=SystemClock)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay_for(self, attempt: int) -> float:
        """Backoff delay after the ``attempt``-th failure (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based; got %d" % attempt)
        delay = self.base_delay_seconds * (
            self.backoff_multiplier ** (attempt - 1)
        )
        delay = min(delay, self.max_delay_seconds)
        if self.jitter is not None:
            delay = self.jitter(attempt, delay)
        return max(0.0, delay)

    @classmethod
    def no_wait(cls, max_attempts: int = 3, **kwargs: Any) -> "RetryPolicy":
        """A policy that retries immediately (zero backoff).

        The right default for the in-process simulator: re-execution is
        cheap and nothing external needs time to recover.
        """
        return cls(
            max_attempts=max_attempts, base_delay_seconds=0.0, **kwargs
        )


@dataclass(frozen=True)
class QuarantinedRecord:
    """A poison record plus the metadata describing its failure."""

    record: StreamRecord
    error: str
    error_type: str
    node_id: int
    kind: str
    partition_id: int
    attempts: int
