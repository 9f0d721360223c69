"""The model controller (paper, Section II-B).

The controller is the narrow channel between the management plane (model
manager) and the running anomaly detectors: it turns model
add/update/delete notifications into *control instructions* and applies
them to the live pipeline through the rebroadcast mechanism — never by
restarting anything.

Each instruction carries the operation, the target model binding, and the
serialised model payload; the controller materialises the model object and
queues the rebroadcast.  Instructions are applied by the streaming
scheduler at the next batch boundary, so updates are atomic with respect
to micro-batches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..streaming.broadcast import BroadcastVariable
from ..streaming.engine import StreamingContext

__all__ = ["ControlOp", "ControlInstruction", "ModelBinding", "ModelController"]


class ControlOp(enum.Enum):
    """Model operations the controller understands."""

    ADD = "add"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class ControlInstruction:
    """One instruction sent from the model manager to the detectors."""

    op: ControlOp
    target: str
    payload: Optional[Dict[str, Any]] = None


@dataclass
class ModelBinding:
    """Where a named model lives in the running pipeline.

    Attributes
    ----------
    context:
        The streaming context whose scheduler applies the rebroadcast.
    variable:
        The broadcast variable holding the live model object.
    deserialize:
        Turns a stored model dict into the live object.
    empty:
        Factory for the "deleted" value (an empty model) so DELETE keeps
        the pipeline running with nothing to match against.
    """

    context: StreamingContext
    variable: BroadcastVariable
    deserialize: Callable[[Dict[str, Any]], Any]
    empty: Callable[[], Any]


class ModelController:
    """Apply control instructions to a live LogLens deployment."""

    def __init__(self) -> None:
        self._bindings: Dict[str, ModelBinding] = {}

    # ------------------------------------------------------------------
    def bind(self, target: str, binding: ModelBinding) -> None:
        """Register a model binding under a target name."""
        if target in self._bindings:
            raise ValueError("target %r already bound" % target)
        self._bindings[target] = binding

    def targets(self) -> List[str]:
        return sorted(self._bindings)

    # ------------------------------------------------------------------
    def handle(self, instruction: ControlInstruction) -> None:
        """Queue one instruction onto the live pipeline.

        ADD and UPDATE both rebroadcast the deserialised payload; DELETE
        rebroadcasts the binding's empty model.  The swap itself happens
        at the next micro-batch boundary (zero downtime).
        """
        binding = self._bindings.get(instruction.target)
        if binding is None:
            raise KeyError("no binding for target %r" % instruction.target)
        if instruction.op in (ControlOp.ADD, ControlOp.UPDATE):
            if instruction.payload is None:
                raise ValueError(
                    "%s instruction needs a payload" % instruction.op.value
                )
            value = binding.deserialize(instruction.payload)
        else:
            value = binding.empty()
        binding.context.rebroadcast(binding.variable, value)

    def update(self, target: str, payload: Dict[str, Any]) -> None:
        """Convenience wrapper for an UPDATE instruction."""
        self.handle(ControlInstruction(ControlOp.UPDATE, target, payload))

    def delete(self, target: str) -> None:
        """Convenience wrapper for a DELETE instruction."""
        self.handle(ControlInstruction(ControlOp.DELETE, target))
