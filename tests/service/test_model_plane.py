"""Unit tests for model builder / manager / controller."""

import pytest

from repro.parsing.parser import PatternModel
from repro.sequence.model import SequenceModel
from repro.service.model_builder import ModelBuilder
from repro.service.model_controller import ModelBinding, ModelController
from repro.service.model_manager import (
    ModelManager,
    PATTERN_MODEL,
    SEQUENCE_MODEL,
)
from repro.service.storage import LogStorage, ModelStorage
from repro.streaming.engine import StreamingContext


def training_lines(n_events=8):
    lines = []
    for i in range(n_events):
        eid = "tx-%04d" % i
        t = i  # minutes
        lines.append(
            "2016/05/09 10:%02d:01 api BEGIN job %s queue default" % (t, eid)
        )
        lines.append(
            "2016/05/09 10:%02d:03 worker running job %s bytes %d"
            % (t, eid, 1_000_000 + i)
        )
        lines.append(
            "2016/05/09 10:%02d:05 api job %s COMPLETED rc zero" % (t, eid)
        )
    return lines


class TestModelBuilder:
    def test_build_both_models(self):
        built = ModelBuilder().build(training_lines())
        assert len(built.pattern_model) == 3
        assert len(built.sequence_model) == 1
        assert built.unparsed_training_logs == 0

    def test_build_pattern_model_only(self):
        model = ModelBuilder().build_pattern_model(training_lines())
        assert isinstance(model, PatternModel)
        assert len(model) == 3

    def test_rebuild_from_storage(self):
        storage = LogStorage()
        for line in training_lines():
            storage.store(line, "src")
        built = ModelBuilder().rebuild_from_storage(storage, "src")
        assert len(built.pattern_model) == 3

    def test_rebuild_with_window(self):
        storage = LogStorage()
        for i, line in enumerate(training_lines()):
            storage.store(line, "src", timestamp_millis=i * 1000)
        built = ModelBuilder().rebuild_from_storage(
            storage, "src", window_millis=(0, 11_000)
        )
        assert built.pattern_model is not None

    def test_rebuild_empty_window_raises(self):
        storage = LogStorage()
        storage.store("x", "src", timestamp_millis=100)
        with pytest.raises(ValueError):
            ModelBuilder().rebuild_from_storage(
                storage, "src", window_millis=(200, 300)
            )
        with pytest.raises(ValueError):
            ModelBuilder().rebuild_from_storage(storage, "other")


class TestModelController:
    def _controller(self):
        ctx = StreamingContext(num_partitions=1)
        bv = ctx.broadcast(PatternModel([]))
        controller = ModelController()
        controller.bind(
            "pattern_model",
            ModelBinding(
                context=ctx,
                variable=bv,
                deserialize=PatternModel.from_dict,
            ),
        )
        return controller, ctx, bv

    def test_update_queues_rebroadcast(self):
        controller, ctx, bv = self._controller()
        model = PatternModel.from_dict(
            {"version": 2, "patterns": [{"id": 1, "grok": "x %{WORD:w}"}]}
        )
        controller.update("pattern_model", model.to_dict())
        assert ctx.broadcast_manager.pending_updates == 1
        ctx.run_batch([])
        assert len(bv.get_value()) == 1

    def test_delete_installs_empty_model(self):
        """A deletion reaches the detectors as a new, empty version."""
        controller, ctx, bv = self._controller()
        controller.update("pattern_model", PatternModel([]).to_dict())
        ctx.run_batch([])
        assert len(bv.get_value()) == 0

    def test_unknown_target_raises(self):
        controller, _, _ = self._controller()
        with pytest.raises(KeyError):
            controller.update("nope", {})

    def test_double_bind_raises(self):
        controller, ctx, bv = self._controller()
        with pytest.raises(ValueError):
            controller.bind(
                "pattern_model",
                ModelBinding(ctx, bv, PatternModel.from_dict),
            )

    def test_delete_keeps_no_history(self):
        """The controller queues each instruction and keeps none of them:
        the broadcast variable is the one home of the live model."""
        controller, ctx, bv = self._controller()
        model = PatternModel.from_dict(
            {"version": 2, "patterns": [{"id": 1, "grok": "x %{WORD:w}"}]}
        )
        for _ in range(3):
            controller.update("pattern_model", model.to_dict())
        controller.update("pattern_model", PatternModel([]).to_dict())
        ctx.run_batch([])
        assert len(bv.get_value()) == 0
        assert list(vars(controller)) == ["_bindings"]


class TestModelManager:
    def test_register_built_versions(self):
        manager = ModelManager(ModelStorage())
        built = ModelBuilder().build(training_lines())
        pv, sv = manager.register_built(built)
        assert (pv, sv) == (1, 1)
        pv, sv = manager.register_built(built)
        assert (pv, sv) == (2, 2)

    def test_publish_requires_controller(self):
        manager = ModelManager(ModelStorage())
        manager.register_built(ModelBuilder().build(training_lines()))
        with pytest.raises(RuntimeError):
            manager.publish(PATTERN_MODEL)

    def test_delete_automaton_creates_new_version(self):
        manager = ModelManager(ModelStorage())
        built = ModelBuilder().build(training_lines())
        manager.register_built(built)
        version = manager.delete_automaton(1, publish=False)
        assert version == 2
        reduced = SequenceModel.from_dict(
            manager.storage.get(SEQUENCE_MODEL)
        )
        assert len(reduced) == len(built.sequence_model) - 1

    def test_pattern_edit_roundtrip(self):
        manager = ModelManager(ModelStorage())
        built = ModelBuilder().build(training_lines())
        manager.register_built(built)
        editor = manager.edit_patterns()
        first_id = editor.result()[0].pattern_id
        editor.delete_pattern(first_id)
        version = manager.commit_pattern_edits(editor, publish=False)
        assert version == 2
        edited = PatternModel.from_dict(manager.storage.get(PATTERN_MODEL))
        assert len(edited) == len(built.pattern_model) - 1

    def test_rebuild_from_log_storage(self):
        manager = ModelManager(ModelStorage())
        log_storage = LogStorage()
        for line in training_lines():
            log_storage.store(line, "src")
        built = manager.rebuild(log_storage, "src", publish=False)
        assert len(built.pattern_model) == 3
        assert manager.storage.latest_version(PATTERN_MODEL) == 1
