"""The external heartbeat controller (paper, Section V-B).

Stateful anomaly detection is event-driven: with no incoming logs, an
already-anomalous open state (a transaction that will never finish) is
never reported.  Wall-clock timeouts don't work because *log time* can run
faster or slower than system time.  The controller therefore tracks, per
source, the last observed log timestamp and the log inter-arrival rate,
and on every tick emits a heartbeat message whose timestamp *extrapolates*
log time: ``last_observed + k × mean_gap`` after ``k`` silent ticks.

Heartbeats enter the same data channel as logs and are fanned out to every
partition by the custom partitioner, where they trigger expired-state
sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..obs import MetricsRegistry, get_registry
from ..streaming.records import StreamRecord, heartbeat_record

__all__ = ["SourceClock", "HeartbeatController"]


@dataclass
class SourceClock:
    """Per-source log-time tracking."""

    last_timestamp: Optional[int] = None
    #: Exponentially-weighted mean inter-arrival gap (millis).
    mean_gap: float = 0.0
    observed: int = 0
    silent_ticks: int = 0


class HeartbeatController:
    """Generate per-source heartbeat messages carrying extrapolated log time.

    Parameters
    ----------
    ewma_alpha:
        Weight of the newest gap in the rate estimate (default 0.3).
    default_gap_millis:
        Gap assumed before any rate can be estimated (default 1000).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; per-source emission
        runs through its ``heartbeat.emit`` site.  An injected (or real)
        failure for one source skips that source's beat for the tick —
        counted in ``heartbeat.emit_errors`` — instead of silencing
        every other source's sweep.
    """

    def __init__(
        self,
        ewma_alpha: float = 0.3,
        default_gap_millis: int = 1000,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Optional[object] = None,
    ) -> None:
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.ewma_alpha = ewma_alpha
        self.default_gap_millis = default_gap_millis
        self._fault_plan = fault_plan
        self._clocks: Dict[str, SourceClock] = {}
        obs = metrics if metrics is not None else get_registry()
        self._m_sweep_seconds = obs.histogram("heartbeat.sweep_seconds")
        self._m_beats = obs.counter("heartbeat.beats")
        self._m_active_sources = obs.gauge("heartbeat.active_sources")
        self._m_emit_errors = obs.counter("heartbeat.emit_errors")

    # ------------------------------------------------------------------
    def observe(self, source: str, timestamp_millis: Optional[int]) -> None:
        """Record one log arrival from ``source``.

        The one-record form of :meth:`observe_records`, which the
        service's ``step()`` calls once per parsed bucket.
        """
        self._observe_run(source, (timestamp_millis,))

    def observe_records(self, records: Sequence[StreamRecord]) -> None:
        """Record the arrivals of a bucket of parsed records, in order.

        Each record counts for its ``source`` (``"unknown"`` when it has
        none) at its ``timestamp_millis``.  Consecutive records of one
        source are folded as one run, with the same per-line rate update
        :meth:`observe` makes, so the clocks end exactly as one
        :meth:`observe` call per record would leave them.
        """
        run_source: Optional[str] = None
        run: List[Optional[int]] = []
        for record in records:
            source = record.source or "unknown"
            if source != run_source:
                if run:
                    self._observe_run(run_source, run)
                run_source = source
                run = []
            run.append(record.timestamp_millis)
        if run:
            self._observe_run(run_source, run)

    def _observe_run(
        self, source: str, timestamps: Sequence[Optional[int]]
    ) -> None:
        """Fold consecutive arrivals of one source into its clock."""
        clock = self._clocks.get(source)
        if clock is None:
            clock = self._clocks[source] = SourceClock()
        clock.silent_ticks = 0
        clock.observed += len(timestamps)
        last = clock.last_timestamp
        mean_gap = clock.mean_gap
        alpha = self.ewma_alpha
        keep = 1 - alpha
        for timestamp in timestamps:
            if timestamp is None:
                continue
            if last is not None:
                gap = max(0, timestamp - last)
                if mean_gap == 0.0:
                    mean_gap = float(gap)
                else:
                    mean_gap = alpha * gap + keep * mean_gap
            if last is None or timestamp > last:
                last = timestamp
        clock.last_timestamp = last
        clock.mean_gap = mean_gap

    # ------------------------------------------------------------------
    def tick(self) -> List[StreamRecord]:
        """One controller period: emit a heartbeat per source whose log
        time is known.

        Every successive silent tick advances the extrapolated timestamp
        by another estimated gap, so log time keeps progressing even while
        the source is quiet.
        """
        started = time.perf_counter()
        out: List[StreamRecord] = []
        for source, clock in self._clocks.items():
            if clock.last_timestamp is None:
                continue
            clock.silent_ticks += 1
            try:
                out.append(self._emit(source, clock))
            except Exception:
                # One source's failure must not silence the others'
                # expiry sweeps; skip this beat and count it.
                self._m_emit_errors.inc()
        self._m_sweep_seconds.observe(time.perf_counter() - started)
        self._m_beats.inc(len(out))
        self._m_active_sources.set(len(self._clocks))
        return out

    def _emit(self, source: str, clock: SourceClock) -> StreamRecord:
        """Build one source's heartbeat (fault-injectable)."""

        def build() -> StreamRecord:
            gap = clock.mean_gap or float(self.default_gap_millis)
            extrapolated = clock.last_timestamp + int(
                round(gap * clock.silent_ticks)
            )
            return heartbeat_record(source, extrapolated)

        if self._fault_plan is not None:
            return self._fault_plan.invoke(
                "heartbeat.emit", build, subject=source
            )
        return build()

    def estimated_time(self, source: str) -> Optional[int]:
        """Current extrapolated log time of a source (None if unseen)."""
        clock = self._clocks.get(source)
        if clock is None or clock.last_timestamp is None:
            return None
        gap = clock.mean_gap or float(self.default_gap_millis)
        return clock.last_timestamp + int(round(gap * clock.silent_ticks))

    def sources(self) -> List[str]:
        return sorted(self._clocks)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """JSON-safe serialisation of all source clocks (checkpointing)."""
        return {
            source: {
                "last_timestamp": clock.last_timestamp,
                "mean_gap": clock.mean_gap,
                "observed": clock.observed,
                "silent_ticks": clock.silent_ticks,
            }
            for source, clock in self._clocks.items()
        }

    def restore_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Replace the clock table with a :meth:`snapshot`."""
        self._clocks = {
            source: SourceClock(
                last_timestamp=entry.get("last_timestamp"),
                mean_gap=entry.get("mean_gap", 0.0),
                observed=entry.get("observed", 0),
                silent_ticks=entry.get("silent_ticks", 0),
            )
            for source, entry in snapshot.items()
        }
