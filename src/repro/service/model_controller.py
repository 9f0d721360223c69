"""The model controller (paper, Section II-B).

The controller is the narrow channel between the management plane (model
manager) and the running anomaly detectors: it turns each new model
version into an update of the live pipeline through the rebroadcast
mechanism — never by restarting anything.  The paper's add, update and
delete all reach the detectors this way: deleting an automaton, say, is
a new sequence-model version without it.

An update carries the target model binding and the serialised model
payload; the controller materialises the model object and queues the
rebroadcast.  Updates are applied by the streaming scheduler at the next
batch boundary, so they are atomic with respect to micro-batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from ..streaming.broadcast import BroadcastVariable
from ..streaming.engine import StreamingContext

__all__ = ["ModelBinding", "ModelController"]


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
    """

    context: StreamingContext
    variable: BroadcastVariable
    deserialize: Callable[[Dict[str, Any]], Any]


class ModelController:
    """Apply model updates to a live LogLens deployment."""

    def __init__(self) -> None:
        self._bindings: Dict[str, ModelBinding] = {}

    def bind(self, target: str, binding: ModelBinding) -> None:
        """Register a model binding under a target name."""
        if target in self._bindings:
            raise ValueError("target %r already bound" % target)
        self._bindings[target] = binding

    def update(self, target: str, payload: Dict[str, Any]) -> None:
        """Queue the deserialised ``payload`` onto the live pipeline.

        The swap itself happens at the next micro-batch boundary (zero
        downtime).  Raises ``KeyError`` for an unbound ``target``.
        """
        binding = self._bindings.get(target)
        if binding is None:
            raise KeyError("no binding for target %r" % target)
        binding.context.rebroadcast(
            binding.variable, binding.deserialize(payload)
        )
