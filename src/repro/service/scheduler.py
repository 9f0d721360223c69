"""Simulated-clock task scheduler for the relearning automation.

Section II-B: "users can configure LogLens to automatically instruct
model builder every midnight to rebuild models using the last seven days
logs."  The scheduler owns that automation without touching the wall
clock: it advances on *log time* (the same clock the heartbeat controller
extrapolates), so replayed history triggers exactly the rebuilds it would
have triggered live, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ScheduledTask", "SimulatedScheduler", "RelearnAutomation"]

_DAY_MILLIS = 24 * 3600 * 1000


@dataclass
class ScheduledTask:
    """A periodic task on the simulated clock."""

    name: str
    period_millis: int
    callback: Callable[[int], Any]
    #: ``None`` until the clock first advances (unanchored task).
    next_fire_millis: Optional[int]
    runs: int = 0
    last_result: Any = None


class SimulatedScheduler:
    """Fire periodic tasks as log time advances.

    The owner calls :meth:`advance` with the current log time (e.g. after
    each service step); every task whose deadline passed fires once per
    elapsed period, in deadline order.
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, ScheduledTask] = {}
        self._clock: Optional[int] = None

    # ------------------------------------------------------------------
    def schedule(
        self,
        name: str,
        period_millis: int,
        callback: Callable[[int], Any],
        first_fire_millis: Optional[int] = None,
    ) -> ScheduledTask:
        """Register a periodic task; returns its handle.

        ``first_fire_millis`` defaults to one period after the current
        clock (or after the first :meth:`advance` when the clock is
        unset).
        """
        if period_millis <= 0:
            raise ValueError("period_millis must be positive")
        if name in self._tasks:
            raise ValueError("task %r already scheduled" % name)
        if first_fire_millis is None and self._clock is not None:
            first_fire_millis = self._clock + period_millis
        # With no clock yet, the task stays unanchored (None) and is
        # anchored one period after the first advance.
        task = ScheduledTask(
            name=name,
            period_millis=period_millis,
            callback=callback,
            next_fire_millis=first_fire_millis,
        )
        self._tasks[name] = task
        return task

    def cancel(self, name: str) -> None:
        if name not in self._tasks:
            raise KeyError("no task named %r" % name)
        del self._tasks[name]

    def tasks(self) -> List[str]:
        return sorted(self._tasks)

    @property
    def clock_millis(self) -> Optional[int]:
        return self._clock

    # ------------------------------------------------------------------
    def advance(self, now_millis: int) -> List[Tuple[str, Any]]:
        """Move the clock forward; fire due tasks; return (name, result).

        The clock never moves backwards; a stale ``now_millis`` is a
        no-op.  A task more than one period behind fires once per missed
        period (catch-up), matching cron-like semantics.
        """
        if self._clock is not None and now_millis <= self._clock:
            return []
        first_advance = self._clock is None
        self._clock = now_millis
        if first_advance:
            for task in self._tasks.values():
                if task.next_fire_millis is None:
                    task.next_fire_millis = now_millis + task.period_millis
        fired: List[Tuple[str, Any]] = []
        while True:
            due = [
                t for t in self._tasks.values()
                if t.next_fire_millis is not None
                and t.next_fire_millis <= now_millis
            ]
            if not due:
                break
            # Strict deadline order (name breaks ties deterministically).
            task = min(
                due, key=lambda t: (t.next_fire_millis, t.name)
            )
            fire_time = task.next_fire_millis
            task.last_result = task.callback(fire_time)
            task.runs += 1
            task.next_fire_millis = fire_time + task.period_millis
            fired.append((task.name, task.last_result))
        return fired


class RelearnAutomation:
    """The paper's nightly-rebuild automation, on the simulated clock.

    Every ``period_millis`` (default: one day) of log time, rebuild both
    models from the archived logs of the trailing ``window_millis``
    (default: seven days) and publish them to the running service.
    """

    def __init__(
        self,
        service: "Any",
        source: str,
        period_millis: int = _DAY_MILLIS,
        window_millis: int = 7 * _DAY_MILLIS,
        scheduler: Optional[SimulatedScheduler] = None,
    ) -> None:
        self.service = service
        self.source = source
        self.window_millis = window_millis
        self.scheduler = scheduler if scheduler is not None \
            else SimulatedScheduler()
        self.rebuilds = 0
        self.last_error: Optional[str] = None
        self.scheduler.schedule(
            "relearn:%s" % source, period_millis, self._rebuild
        )

    def _rebuild(self, fire_millis: int):
        try:
            models = self.service.model_manager.rebuild(
                self.service.log_storage,
                self.source,
                window_millis=(
                    fire_millis - self.window_millis, fire_millis
                ),
            )
        except ValueError as exc:
            # No archived logs in the window yet: skip this period.
            self.last_error = str(exc)
            return None
        self.rebuilds += 1
        self.last_error = None
        return models

    def advance(self, now_millis: int):
        """Advance the automation to the given log time."""
        return self.scheduler.advance(now_millis)
