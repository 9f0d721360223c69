"""Sequence model learning (paper, Section IV-A2).

Given parsed training logs (assumed to represent *normal* behaviour), the
learner:

1. discovers event ID field groups
   (:class:`~repro.sequence.id_discovery.IdFieldDiscovery`);
2. for each group, collects every event — the time-ordered list of logs
   sharing one ID content value;
3. profiles an :class:`~repro.sequence.automata.Automaton` per group:
   begin/end states, per-state min/max occurrence, min/max event duration.

Events whose patterns never co-occur under a shared identifier produce no
automaton — stateless parsing still covers those logs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..parsing.parser import ParsedLog
from .automata import Automaton, StateRule
from .id_discovery import IdFieldDiscovery, IdFieldGroup
from .model import SequenceModel

__all__ = ["TrainingEvent", "SequenceModelLearner"]


@dataclass
class TrainingEvent:
    """One observed event: its ID content and time-ordered member logs."""

    content: str
    logs: List[ParsedLog]

    @property
    def pattern_sequence(self) -> List[int]:
        return [log.pattern_id for log in self.logs]

    @property
    def duration_millis(self) -> int:
        times = [
            log.timestamp_millis
            for log in self.logs
            if log.timestamp_millis is not None
        ]
        if len(times) < 2:
            return 0
        return max(times) - min(times)


class SequenceModelLearner:
    """Profile automata with rules from normal-run parsed logs.

    Parameters
    ----------
    discovery:
        ID discovery configuration; a default instance is used if omitted.
    min_events:
        Minimum number of training events required to emit an automaton
        (default 2 — a single observation cannot give meaningful bounds).
    duration_slack:
        Fractional widening applied to the learned [min, max] duration so
        borderline-normal events do not alert (default 0.0 — exact bounds,
        as the paper profiles min/max verbatim).
    """

    def __init__(
        self,
        discovery: Optional[IdFieldDiscovery] = None,
        min_events: int = 2,
        duration_slack: float = 0.0,
    ) -> None:
        self.discovery = discovery if discovery is not None \
            else IdFieldDiscovery()
        self.min_events = min_events
        if duration_slack < 0:
            raise ValueError("duration_slack must be >= 0")
        self.duration_slack = duration_slack

    # ------------------------------------------------------------------
    def fit(self, logs: Sequence[ParsedLog]) -> SequenceModel:
        """Learn a :class:`SequenceModel` from normal-run parsed logs."""
        groups = self.discovery.discover(logs)
        automata: List[Automaton] = []
        next_id = 1
        for group in groups:
            events = self.collect_events(logs, group)
            automaton = self._profile(group, events, next_id)
            if automaton is not None:
                automata.append(automaton)
                next_id += 1
        return SequenceModel(automata)

    # ------------------------------------------------------------------
    def collect_events(
        self, logs: Sequence[ParsedLog], group: IdFieldGroup
    ) -> List[TrainingEvent]:
        """Group logs by ID content under ``group`` and order them by time.

        Logs without a timestamp keep their arrival order (stable sort).
        """
        fields = group.as_dict()
        by_content: Dict[str, List[ParsedLog]] = defaultdict(list)
        for log in logs:
            fname = fields.get(log.pattern_id)
            if fname is None:
                continue
            content = log.fields.get(fname)
            if content is None:
                continue
            by_content[content].append(log)
        events = []
        for content, members in by_content.items():
            members.sort(
                key=lambda l: (
                    l.timestamp_millis
                    if l.timestamp_millis is not None
                    else 0
                )
            )
            events.append(TrainingEvent(content=content, logs=members))
        return events

    # ------------------------------------------------------------------
    def _profile(
        self,
        group: IdFieldGroup,
        events: List[TrainingEvent],
        automaton_id: int,
    ) -> Optional[Automaton]:
        if len(events) < self.min_events:
            return None
        begin: set = set()
        end: set = set()
        min_occ: Dict[int, int] = {}
        max_occ: Dict[int, int] = {}
        durations: List[int] = []
        for event in events:
            seq = event.pattern_sequence
            begin.add(seq[0])
            end.add(seq[-1])
            counts = Counter(seq)
            for pid in group.pattern_ids:
                c = counts.get(pid, 0)
                min_occ[pid] = min(min_occ.get(pid, c), c)
                max_occ[pid] = max(max_occ.get(pid, c), c)
            durations.append(event.duration_millis)
        states = {
            pid: StateRule(
                pattern_id=pid,
                min_occurrences=min_occ[pid],
                max_occurrences=max_occ[pid],
            )
            for pid in group.pattern_ids
        }
        lo, hi = min(durations), max(durations)
        slack = int(round((hi - lo) * self.duration_slack))
        return Automaton(
            automaton_id=automaton_id,
            id_fields=group.as_dict(),
            begin_states=frozenset(begin),
            end_states=frozenset(end),
            states=states,
            min_duration_millis=max(0, lo - slack),
            max_duration_millis=hi + slack,
            event_count=len(events),
        )
