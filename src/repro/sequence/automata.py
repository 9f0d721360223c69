"""Event automata: the stateful model (paper, Section IV, Figure 3).

An automaton summarises the normal log sequence of one event type.  Each
*state* corresponds to one log pattern; the automaton records which states
begin and end an event, the min/max occurrence of every intermediate state,
and the min/max duration between the begin and the end state.  These
profiled statistics are the *rules* anomalies are checked against
(Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional

__all__ = ["StateRule", "Automaton"]


@dataclass
class StateRule:
    """Occurrence bounds for one state (one log pattern) of an automaton."""

    pattern_id: int
    min_occurrences: int
    max_occurrences: int

    @property
    def required(self) -> bool:
        """A state every normal event contains at least once."""
        return self.min_occurrences >= 1

    def to_dict(self) -> Dict[str, int]:
        return {
            "pattern_id": self.pattern_id,
            "min_occurrences": self.min_occurrences,
            "max_occurrences": self.max_occurrences,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "StateRule":
        return cls(
            pattern_id=data["pattern_id"],
            min_occurrences=data["min_occurrences"],
            max_occurrences=data["max_occurrences"],
        )


@dataclass
class Automaton:
    """One event type's learned behaviour.

    Attributes
    ----------
    automaton_id:
        Stable identifier within the sequence model.
    id_fields:
        ``pattern id → field name`` carrying the event ID (from
        :class:`~repro.sequence.id_discovery.IdFieldGroup`).
    begin_states / end_states:
        Pattern ids observed to open / close normal events.
    states:
        Per-pattern occurrence rules.
    min_duration_millis / max_duration_millis:
        Learned bounds on begin→end duration.
    event_count:
        Number of training events the automaton was profiled from.
    """

    automaton_id: int
    id_fields: Dict[int, str]
    begin_states: FrozenSet[int]
    end_states: FrozenSet[int]
    states: Dict[int, StateRule]
    min_duration_millis: int
    max_duration_millis: int
    event_count: int = 0

    # ------------------------------------------------------------------
    @property
    def pattern_ids(self) -> FrozenSet[int]:
        """All pattern ids participating in this automaton."""
        return frozenset(self.states.keys())

    def id_field_for(self, pattern_id: int) -> Optional[str]:
        return self.id_fields.get(pattern_id)

    def accepts_pattern(self, pattern_id: int) -> bool:
        return pattern_id in self.states

    def required_states(self) -> List[int]:
        """Pattern ids that every normal event must contain."""
        return [
            pid for pid, rule in sorted(self.states.items()) if rule.required
        ]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "automaton_id": self.automaton_id,
            "id_fields": {str(k): v for k, v in self.id_fields.items()},
            "begin_states": sorted(self.begin_states),
            "end_states": sorted(self.end_states),
            "states": [
                rule.to_dict() for _, rule in sorted(self.states.items())
            ],
            "min_duration_millis": self.min_duration_millis,
            "max_duration_millis": self.max_duration_millis,
            "event_count": self.event_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Automaton":
        states = {
            entry["pattern_id"]: StateRule.from_dict(entry)
            for entry in data["states"]
        }
        return cls(
            automaton_id=data["automaton_id"],
            id_fields={int(k): v for k, v in data["id_fields"].items()},
            begin_states=frozenset(data["begin_states"]),
            end_states=frozenset(data["end_states"]),
            states=states,
            min_duration_millis=data["min_duration_millis"],
            max_duration_millis=data["max_duration_millis"],
            event_count=data.get("event_count", 0),
        )
