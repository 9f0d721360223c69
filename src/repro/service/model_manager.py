"""The model manager (paper, Section II-B).

Sits between model storage and the model controller.  It registers freshly
built models, publishes versions to the running pipeline, exposes the
human-edit hooks (pattern-set editing, automaton deletion — the Table V
experiment is one ``delete_automaton`` call), and owns the relearning
automation ("rebuild every midnight from the last seven days").
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..parsing.editing import PatternSetEditor
from ..parsing.parser import PatternModel
from ..sequence.model import SequenceModel
from .model_builder import BuiltModels, ModelBuilder
from .model_controller import ModelController
from .storage import LogStorage, ModelStorage

__all__ = ["ModelManager"]

PATTERN_MODEL = "pattern_model"
SEQUENCE_MODEL = "sequence_model"


class ModelManager:
    """Manage model versions and drive the controller.

    Parameters
    ----------
    storage:
        Versioned model storage.
    controller:
        The live-pipeline controller; may be ``None`` for offline use
        (models are versioned but nothing is published).
    builder:
        Used by the relearning automation.
    """

    def __init__(
        self,
        storage: ModelStorage,
        controller: Optional[ModelController] = None,
        builder: Optional[ModelBuilder] = None,
    ) -> None:
        self.storage = storage
        self.controller = controller
        self.builder = builder if builder is not None else ModelBuilder()

    # ------------------------------------------------------------------
    # Registration and publication
    # ------------------------------------------------------------------
    def register_built(self, models: BuiltModels) -> Tuple[int, int]:
        """Store both models of a build; returns their version numbers."""
        pv = self.storage.put(PATTERN_MODEL, models.pattern_model.to_dict())
        sv = self.storage.put(SEQUENCE_MODEL, models.sequence_model.to_dict())
        return pv, sv

    def publish(self, name: str, version: Optional[int] = None) -> None:
        """Push a stored model version to the running pipeline."""
        if self.controller is None:
            raise RuntimeError("no controller attached; offline manager")
        payload = self.storage.get(name, version)
        self.controller.update(name, payload)

    def publish_all(self) -> None:
        """Push the latest version of every stored model."""
        for name in self.storage.names():
            self.publish(name)

    # ------------------------------------------------------------------
    # Human edit hooks
    # ------------------------------------------------------------------
    def edit_patterns(self, name: str = PATTERN_MODEL) -> PatternSetEditor:
        """Open an editor session over the latest pattern model.

        Apply edits on the returned editor, then pass it to
        :meth:`commit_pattern_edits`.
        """
        model = PatternModel.from_dict(self.storage.get(name))
        return PatternSetEditor(model.patterns)

    def commit_pattern_edits(
        self,
        editor: PatternSetEditor,
        name: str = PATTERN_MODEL,
        publish: bool = True,
    ) -> int:
        """Store (and optionally publish) the editor's result as a new
        version; returns the version number."""
        current_version = self.storage.latest_version(name)
        model = PatternModel(editor.result(), version=current_version + 1)
        version = self.storage.put(name, model.to_dict())
        if publish and self.controller is not None:
            self.publish(name, version)
        return version

    def delete_automaton(
        self,
        automaton_id: int,
        name: str = SEQUENCE_MODEL,
        publish: bool = True,
    ) -> int:
        """Remove one automaton from the sequence model (Table V edit).

        Stores the reduced model as a new version and publishes it through
        the controller — the running service keeps processing throughout.
        """
        model = SequenceModel.from_dict(self.storage.get(name))
        reduced = model.without(automaton_id)
        version = self.storage.put(name, reduced.to_dict())
        if publish and self.controller is not None:
            self.publish(name, version)
        return version

    # ------------------------------------------------------------------
    # Relearning automation (data drift)
    # ------------------------------------------------------------------
    def rebuild(
        self,
        log_storage: LogStorage,
        source: str,
        window_millis: Optional[Tuple[int, int]] = None,
        publish: bool = True,
    ) -> BuiltModels:
        """Relearn both models from archived logs and roll them out.

        This is the periodic automation of Section II-B ("instruct model
        builder every midnight to rebuild models using the last seven days
        logs"); the simulator triggers it explicitly.
        """
        models = self.builder.rebuild_from_storage(
            log_storage, source, window_millis
        )
        self.register_built(models)
        if publish and self.controller is not None:
            self.publish_all()
        return models
