"""Injectable clocks: real time for production, manual time for tests.

Retry backoff and per-attempt timeouts must be *testable without
sleeping*: a chaos test that re-executes an operator three times with
exponential backoff should finish in microseconds while still asserting
the exact delays that would have been waited.  Both the retry layer and
the fault-injection harness therefore talk to a tiny clock interface —
``monotonic()`` and ``sleep(seconds)`` — and accept any object providing
it.

:class:`SystemClock` is the wall-clock implementation;
:class:`ManualClock` advances a virtual timeline instantly and records
every sleep for assertions.
"""

from __future__ import annotations

import threading
import time
from typing import List

__all__ = ["SystemClock", "ManualClock"]


class SystemClock:
    """Wall-clock time: ``time.monotonic`` + ``time.sleep``."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ManualClock:
    """A deterministic virtual clock that never blocks.

    ``sleep`` advances :meth:`monotonic` by the requested amount and logs
    the request; ``advance`` moves time forward without logging (used by
    slow-call fault injection to simulate a long-running operator).
    Thread-safe: several threads may sleep concurrently.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()
        self._now = float(start)
        #: Every ``sleep`` duration requested, in order (assertable).
        self.sleeps: List[float] = []

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self._now += max(0.0, seconds)
            self.sleeps.append(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        with self._lock:
            self._now += max(0.0, seconds)

    def reset(self, now: float) -> None:
        """Set the current time (process-backend clock sync)."""
        with self._lock:
            self._now = float(now)

    @property
    def total_slept(self) -> float:
        with self._lock:
            return sum(self.sleeps)

    # Picklable (for process-backend workers): the lock is per-process.
    def __getstate__(self) -> dict:
        with self._lock:
            return {"now": self._now, "sleeps": list(self.sleeps)}

    def __setstate__(self, state: dict) -> None:
        self._lock = threading.Lock()
        self._now = state["now"]
        self.sleeps = list(state["sleeps"])
