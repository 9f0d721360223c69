"""Serialisable sequence model: a set of automata plus bookkeeping.

The sequence model is what the model builder writes to model storage and
the model controller (re)broadcasts to detector workers.  Deleting an
automaton through the model manager (the Table V experiment) produces a
new version of this model with one automaton fewer — ids of the surviving
automata are preserved.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from .automata import Automaton

__all__ = ["SequenceModel"]


class SequenceModel:
    """A versioned collection of event automata.

    A model is not mutated once published: edits build a new model.
    """

    def __init__(
        self, automata: Iterable[Automaton], version: int = 1
    ) -> None:
        self.automata: List[Automaton] = list(automata)
        self.version = version
        #: ``pattern id -> [(automaton, id field), ...]`` in model order:
        #: the automata in which the pattern is a state *and* names the
        #: event-id field.  A pattern in none is absent.
        self.id_routes: Dict[int, List[Tuple[Automaton, str]]] = {}
        for automaton in self.automata:
            for pattern_id in automaton.states:
                fname = automaton.id_field_for(pattern_id)
                if fname is not None:
                    self.id_routes.setdefault(pattern_id, []).append(
                        (automaton, fname)
                    )

    def __len__(self) -> int:
        return len(self.automata)

    def __iter__(self):
        return iter(self.automata)

    # ------------------------------------------------------------------
    def get(self, automaton_id: int) -> Automaton:
        for automaton in self.automata:
            if automaton.automaton_id == automaton_id:
                return automaton
        raise KeyError("no automaton with id %d" % automaton_id)

    def without(self, automaton_id: int) -> "SequenceModel":
        """A new model (version bumped) with one automaton deleted.

        This is the model-edit operation of the Table V experiment.
        """
        remaining = [
            a for a in self.automata if a.automaton_id != automaton_id
        ]
        if len(remaining) == len(self.automata):
            raise KeyError("no automaton with id %d" % automaton_id)
        return SequenceModel(remaining, version=self.version + 1)

    def automata_for_pattern(self, pattern_id: int) -> List[Automaton]:
        """All automata in which ``pattern_id`` is a state."""
        return [a for a in self.automata if a.accepts_pattern(pattern_id)]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "automata": [a.to_dict() for a in self.automata],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SequenceModel":
        return cls(
            (Automaton.from_dict(entry) for entry in data["automata"]),
            version=data.get("version", 1),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "SequenceModel":
        return cls.from_dict(json.loads(payload))
