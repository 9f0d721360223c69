"""Stateful log sequence anomaly detection (paper, Section IV-B).

The detector consumes parsed logs in real time.  Every log that belongs to
an automaton (its pattern is a state and it carries the automaton's ID
field) joins an *open event* keyed by ``(automaton id, ID content)``.  An
event is finalised when an end state arrives, or expired when a heartbeat
shows that no log has touched it for longer than its automaton's expiry
window — the paper's fix for anomalies that would otherwise "never be
reported" (Section V-B).

Time is **log time**: the detector's clock only advances with embedded log
timestamps and heartbeat messages (which the heartbeat controller
extrapolates from the last observed log), never with the wall clock.

Expiry is scheduled on a min-heap keyed by ``(deadline, key)`` with lazy
invalidation, so a heartbeat touches only the events that actually
expired instead of scanning every open event.  Expired events are
emitted in open-map insertion order, as a full scan of the open map
would emit them; the equivalence tests hold a linear-scan oracle.

One :class:`~repro.core.anomaly.Anomaly` is emitted per anomalous event;
its type is the highest-priority violated rule and ``details["violations"]``
lists every violation, so "anomaly count" equals "anomalous sequences" —
the quantity Figures 4 and 5 of the paper report.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.anomaly import Anomaly, AnomalyType
from ..parsing.parser import ParsedLog
from .automata import Automaton
from .model import SequenceModel
from .severity import DefaultSeverityPolicy, SeverityPolicy

__all__ = ["OpenEvent", "DetectorStats", "LogSequenceDetector"]

_VIOLATION_PRIORITY = [
    AnomalyType.MISSING_BEGIN,
    AnomalyType.MISSING_END,
    AnomalyType.MISSING_INTERMEDIATE,
    AnomalyType.OCCURRENCE_VIOLATION,
    AnomalyType.DURATION_VIOLATION,
]


@dataclass
class OpenEvent:
    """In-memory state of one in-flight event."""

    automaton_id: int
    content: str
    counts: Counter = field(default_factory=Counter)
    logs: List[ParsedLog] = field(default_factory=list)
    first_time: Optional[int] = None
    last_time: Optional[int] = None
    #: (timestamp, pattern id) of the earliest log by log time.
    earliest: Optional[Tuple[int, int]] = None
    saw_end: bool = False

    def absorb(self, log: ParsedLog, is_end: bool) -> None:
        self.counts[log.pattern_id] += 1
        self.logs.append(log)
        ts = log.timestamp_millis
        if ts is not None:
            if self.first_time is None or ts < self.first_time:
                self.first_time = ts
            if self.last_time is None or ts > self.last_time:
                self.last_time = ts
            if self.earliest is None or ts < self.earliest[0]:
                self.earliest = (ts, log.pattern_id)
        elif self.earliest is None:
            self.earliest = (0, log.pattern_id)
        if is_end:
            self.saw_end = True

    @property
    def duration_millis(self) -> int:
        if self.first_time is None or self.last_time is None:
            return 0
        return self.last_time - self.first_time

    @property
    def first_pattern(self) -> Optional[int]:
        if self.earliest is not None:
            return self.earliest[1]
        return self.logs[0].pattern_id if self.logs else None

    def to_document(self) -> dict:
        """JSON-safe serialisation for state checkpoints."""
        return {
            "automaton_id": self.automaton_id,
            "content": self.content,
            "logs": [log.to_document() for log in self.logs],
            "first_time": self.first_time,
            "last_time": self.last_time,
            "earliest": list(self.earliest) if self.earliest else None,
            "saw_end": self.saw_end,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "OpenEvent":
        event = cls(
            automaton_id=doc["automaton_id"], content=doc["content"]
        )
        event.logs = [
            ParsedLog.from_document(entry) for entry in doc["logs"]
        ]
        event.counts = Counter(log.pattern_id for log in event.logs)
        event.first_time = doc.get("first_time")
        event.last_time = doc.get("last_time")
        earliest = doc.get("earliest")
        event.earliest = tuple(earliest) if earliest else None
        event.saw_end = doc["saw_end"]
        return event


@dataclass
class DetectorStats:
    """Operational counters for tests and the service dashboard."""

    logs_processed: int = 0
    heartbeats_processed: int = 0
    events_finalized: int = 0
    events_expired: int = 0
    anomalies: int = 0


class LogSequenceDetector:
    """Validate streaming parsed logs against a :class:`SequenceModel`.

    Parameters
    ----------
    model:
        The learned sequence model.
    expiry_factor:
        An open event expires after ``max_duration * expiry_factor``
        milliseconds of log time without completion (default 2.0).
    min_expiry_millis:
        Lower bound on the expiry window, covering automata whose learned
        max duration is ~0 (default 1000).

    Notes
    -----
    The detector is single-threaded by design: in the streaming deployment
    each partition owns one detector instance and the partitioner routes
    all logs of an event to the same partition (Section V-B).
    """

    def __init__(
        self,
        model: SequenceModel,
        expiry_factor: float = 2.0,
        min_expiry_millis: int = 1000,
        severity_policy: Optional[SeverityPolicy] = None,
    ) -> None:
        if expiry_factor <= 0:
            raise ValueError("expiry_factor must be positive")
        self._model = model
        self.expiry_factor = expiry_factor
        self.min_expiry_millis = min_expiry_millis
        self.severity_policy = (
            severity_policy
            if severity_policy is not None
            else DefaultSeverityPolicy()
        )
        self._open: Dict[Tuple[int, str], OpenEvent] = {}
        # Expiry schedule: min-heap of (deadline, seq, key) with lazy
        # invalidation — an entry is live only while it matches
        # _deadlines[key].  _seqs orders keys by open-map insertion so
        # the heap sweep emits expirations in the same order the linear
        # oracle would.  Events with no log time never get a deadline
        # (the linear rule: reference falls back to `now`, so they can
        # never be overdue).
        self._heap: List[Tuple[int, int, Tuple[int, str]]] = []
        self._deadlines: Dict[Tuple[int, str], int] = {}
        self._seqs: Dict[Tuple[int, str], int] = {}
        self._seq_counter = 0
        self._log_clock: Optional[int] = None
        self.stats = DetectorStats()

    # ------------------------------------------------------------------
    @property
    def model(self) -> SequenceModel:
        return self._model

    @model.setter
    def model(self, model: SequenceModel) -> None:
        """Swap the sequence model (the Section V-A update path).

        Open events of automata that no longer exist are dropped — their
        rules are gone, so they can never be validated.  Surviving
        events get their expiry deadlines recomputed against the new
        model's windows.
        """
        self._model = model
        valid_ids = {a.automaton_id for a in model.automata}
        self._open = {
            key: ev
            for key, ev in self._open.items()
            if ev.automaton_id in valid_ids
        }
        self._seqs = {key: self._seqs[key] for key in self._open}
        self._rebuild_heap()

    @property
    def open_event_count(self) -> int:
        """Number of in-flight events currently held in memory."""
        return len(self._open)

    @property
    def expiry_heap_depth(self) -> int:
        """Entries (live + stale) currently on the expiry heap."""
        return len(self._heap)

    def get_parent_state_map(self) -> Dict[Tuple[int, str], OpenEvent]:
        """Direct reference to the open-state map.

        Mirrors the Spark API extension of Section V-B: program logic can
        enumerate states it does not hold keys for (expired-state sweeps).
        """
        return self._open

    # ------------------------------------------------------------------
    # Checkpointing — "losing states can have significant impact on the
    # efficacy of the anomaly detection algorithms" (Section V-A).
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """A JSON-safe checkpoint of the detector's mutable state."""
        return {
            "log_clock": self._log_clock,
            "open_events": [ev.to_document() for ev in self._open.values()],
        }

    @classmethod
    def restore(
        cls,
        snapshot: Dict,
        model: SequenceModel,
        expiry_factor: float = 2.0,
        min_expiry_millis: int = 1000,
    ) -> "LogSequenceDetector":
        """Rebuild a detector from :meth:`snapshot` plus a model.

        Open events of automata absent from ``model`` are dropped, the
        same rule the live model-update path applies.
        """
        detector = cls(
            model,
            expiry_factor=expiry_factor,
            min_expiry_millis=min_expiry_millis,
        )
        detector._log_clock = snapshot.get("log_clock")
        valid = {a.automaton_id for a in model.automata}
        for doc in snapshot.get("open_events", []):
            event = OpenEvent.from_document(doc)
            if event.automaton_id in valid:
                key = (event.automaton_id, event.content)
                detector._open[key] = event
                detector._track(key, event)
        return detector

    # ------------------------------------------------------------------
    def process(self, log: ParsedLog) -> List[Anomaly]:
        """Feed one parsed log; returns anomalies finalised by it."""
        self.stats.logs_processed += 1
        if log.timestamp_millis is not None:
            self._advance_clock(log.timestamp_millis)
        anomalies: List[Anomaly] = []
        routes = self._model.id_routes.get(log.pattern_id, ())
        for automaton, fname in routes:
            content = log.fields.get(fname)
            if content is None:
                continue
            key = (automaton.automaton_id, content)
            event = self._open.get(key)
            if event is None:
                event = OpenEvent(
                    automaton_id=automaton.automaton_id, content=content
                )
                self._open[key] = event
                self._seqs[key] = self._seq_counter
                self._seq_counter += 1
            is_end = log.pattern_id in automaton.end_states
            event.absorb(log, is_end)
            if is_end:
                del self._open[key]
                self._forget(key)
                self.stats.events_finalized += 1
                anomaly = self._validate(automaton, event, expired=False)
                if anomaly is not None:
                    anomalies.append(anomaly)
            else:
                self._schedule(key, event, automaton)
        return anomalies

    def process_many(self, logs: Iterable[ParsedLog]) -> List[Anomaly]:
        """Feed a batch of parsed logs in order."""
        out: List[Anomaly] = []
        for log in logs:
            out.extend(self.process(log))
        return out

    def process_heartbeat(self, now_millis: int) -> List[Anomaly]:
        """Advance log time and sweep expired open events (Section V-B)."""
        self.stats.heartbeats_processed += 1
        self._advance_clock(now_millis)
        return self._sweep(now_millis)

    def flush(self) -> List[Anomaly]:
        """Finalise every open event regardless of expiry.

        Used at end-of-stream (replay) and by tests; equivalent to a
        heartbeat at time +infinity.
        """
        anomalies: List[Anomaly] = []
        for key in list(self._open):
            event = self._open.pop(key)
            self.stats.events_expired += 1
            automaton = self._model.get(event.automaton_id)
            anomaly = self._validate(automaton, event, expired=True)
            if anomaly is not None:
                anomalies.append(anomaly)
        self._heap.clear()
        self._deadlines.clear()
        self._seqs.clear()
        return anomalies

    # ------------------------------------------------------------------
    def _advance_clock(self, ts: int) -> None:
        if self._log_clock is None or ts > self._log_clock:
            self._log_clock = ts

    def _expiry_window(self, automaton: Automaton) -> int:
        return max(
            int(automaton.max_duration_millis * self.expiry_factor),
            self.min_expiry_millis,
        )

    # ------------------------------------------------------------------
    # Expiry scheduling (the heap behind the Section V-B sweep)
    # ------------------------------------------------------------------
    def _track(self, key: Tuple[int, str], event: OpenEvent) -> None:
        """Register a restored event: insertion seq + expiry deadline."""
        if key not in self._seqs:
            self._seqs[key] = self._seq_counter
            self._seq_counter += 1
        self._schedule(key, event, self._model.get(event.automaton_id))

    def _schedule(
        self,
        key: Tuple[int, str],
        event: OpenEvent,
        automaton: Automaton,
    ) -> None:
        """(Re)compute ``key``'s deadline; push a heap entry if it moved.

        Superseded entries stay on the heap and are discarded when
        popped (``_deadlines`` holds the only live deadline per key).
        """
        if event.last_time is None:
            # Linear-sweep rule: no log time means the reference falls
            # back to `now`, so the event can never be overdue.
            self._deadlines.pop(key, None)
            return
        deadline = event.last_time + self._expiry_window(automaton)
        if self._deadlines.get(key) == deadline:
            return
        self._deadlines[key] = deadline
        heapq.heappush(self._heap, (deadline, self._seqs[key], key))
        if len(self._heap) > 64 and len(self._heap) > 4 * len(self._open):
            self._rebuild_heap()

    def _forget(self, key: Tuple[int, str]) -> None:
        self._deadlines.pop(key, None)
        self._seqs.pop(key, None)

    def _rebuild_heap(self) -> None:
        """Drop stale entries by rebuilding the heap from live deadlines."""
        self._deadlines = {}
        self._heap = []
        for key, event in self._open.items():
            if event.last_time is None:
                continue
            automaton = self._model.get(event.automaton_id)
            deadline = event.last_time + self._expiry_window(automaton)
            self._deadlines[key] = deadline
            self._heap.append((deadline, self._seqs[key], key))
        heapq.heapify(self._heap)

    def _sweep(self, now_millis: int) -> List[Anomaly]:
        heap = self._heap
        expired: List[Tuple[int, Tuple[int, str]]] = []
        while heap and heap[0][0] < now_millis:
            deadline, seq, key = heapq.heappop(heap)
            if self._deadlines.get(key) != deadline:
                continue  # superseded or already closed: stale entry
            expired.append((seq, key))
        # Emit in open-map insertion order — exactly what the linear
        # oracle produces — not deadline order.
        expired.sort()
        anomalies: List[Anomaly] = []
        for _, key in expired:
            # pop with default: the map is exposed via
            # get_parent_state_map, so a key may vanish externally.
            event = self._open.pop(key, None)
            if event is None:
                self._forget(key)
                continue
            self._forget(key)
            self.stats.events_expired += 1
            automaton = self._model.get(event.automaton_id)
            anomaly = self._validate(automaton, event, expired=True)
            if anomaly is not None:
                anomalies.append(anomaly)
        return anomalies

    # ------------------------------------------------------------------
    def _validate(
        self, automaton: Automaton, event: OpenEvent, expired: bool
    ) -> Optional[Anomaly]:
        violations: List[Tuple[AnomalyType, str]] = []
        occurrence_ratio = 1.0
        duration_ratio = 1.0
        first = event.first_pattern
        if first is not None and first not in automaton.begin_states:
            violations.append(
                (
                    AnomalyType.MISSING_BEGIN,
                    "event starts with pattern %d, not a begin state"
                    % first,
                )
            )
        if expired and not event.saw_end:
            violations.append(
                (
                    AnomalyType.MISSING_END,
                    "event expired without reaching an end state",
                )
            )
        for pid, rule in sorted(automaton.states.items()):
            count = event.counts.get(pid, 0)
            if rule.required and count == 0:
                violations.append(
                    (
                        AnomalyType.MISSING_INTERMEDIATE,
                        "required state %d never occurred" % pid,
                    )
                )
            elif count < rule.min_occurrences or (
                count > rule.max_occurrences
            ):
                violations.append(
                    (
                        AnomalyType.OCCURRENCE_VIOLATION,
                        "state %d occurred %d times, outside [%d, %d]"
                        % (
                            pid,
                            count,
                            rule.min_occurrences,
                            rule.max_occurrences,
                        ),
                    )
                )
                if count > rule.max_occurrences and rule.max_occurrences:
                    occurrence_ratio = max(
                        occurrence_ratio, count / rule.max_occurrences
                    )
                elif count:
                    occurrence_ratio = max(
                        occurrence_ratio, rule.min_occurrences / count
                    )
        if not expired:
            duration = event.duration_millis
            if not (
                automaton.min_duration_millis
                <= duration
                <= automaton.max_duration_millis
            ):
                violations.append(
                    (
                        AnomalyType.DURATION_VIOLATION,
                        "event duration %d ms outside [%d, %d]"
                        % (
                            duration,
                            automaton.min_duration_millis,
                            automaton.max_duration_millis,
                        ),
                    )
                )
                if duration > automaton.max_duration_millis and (
                    automaton.max_duration_millis
                ):
                    duration_ratio = duration / automaton.max_duration_millis
                elif duration:
                    duration_ratio = (
                        automaton.min_duration_millis / duration
                    )
        if not violations:
            return None
        violations.sort(key=lambda v: _VIOLATION_PRIORITY.index(v[0]))
        primary_type, primary_reason = violations[0]
        self.stats.anomalies += 1
        severity = self.severity_policy.grade(
            violations,
            duration_ratio=duration_ratio,
            occurrence_ratio=occurrence_ratio,
        )
        return Anomaly(
            type=primary_type,
            reason=primary_reason,
            timestamp_millis=event.last_time,
            logs=[log.raw for log in event.logs],
            source=event.logs[0].source if event.logs else None,
            severity=severity,
            details={
                "automaton_id": automaton.automaton_id,
                "event_id": event.content,
                "expired": expired,
                "violations": [
                    {"type": t.value, "reason": r} for t, r in violations
                ],
            },
        )
