"""Unit tests for what-if model replay and staging validation."""

import pytest

from repro.parsing.parser import PatternModel
from repro.sequence.model import SequenceModel
from repro.service.model_builder import ModelBuilder
from repro.service.replay import compare_models, replay
from repro.service.storage import LogStorage


def training_lines(n=8):
    lines = []
    for i in range(n):
        eid = "rp-%03d" % i
        lines += [
            "2016/05/09 10:%02d:01 pipe OPEN stream %s rate 1234567"
            % (i, eid),
            "2016/05/09 10:%02d:05 pipe stream %s SEALED ok" % (i, eid),
        ]
    return lines


@pytest.fixture
def built():
    return ModelBuilder().build(training_lines())


class TestReplay:
    def test_clean_replay(self, built):
        outcome = replay(
            training_lines(3),
            built.pattern_model,
            built.sequence_model,
        )
        assert outcome.logs_replayed == 6
        assert outcome.parsed == 6
        assert outcome.anomaly_count == 0
        assert outcome.parse_coverage == 1.0

    def test_replay_reports_both_anomaly_kinds(self, built):
        stream = [
            "unknown garbage format",
            "2016/05/09 11:00:01 pipe OPEN stream rp-bad rate 7654321",
        ]
        outcome = replay(
            stream, built.pattern_model, built.sequence_model
        )
        assert outcome.counts_by_type == {
            "unparsed_log": 1, "missing_end": 1
        }

    def test_no_flush_leaves_open_events_unreported(self, built):
        stream = [
            "2016/05/09 11:00:01 pipe OPEN stream rp-bad rate 7654321"
        ]
        outcome = replay(
            stream,
            built.pattern_model,
            built.sequence_model,
            flush_open_events=False,
        )
        assert outcome.anomaly_count == 0

    def test_empty_stream(self, built):
        outcome = replay([], built.pattern_model, built.sequence_model)
        assert outcome.parse_coverage == 1.0


class TestCompareModels:
    def _storage(self):
        storage = LogStorage()
        for line in training_lines(6):
            storage.store(line, "src")
        return storage

    def test_identical_candidate_ships(self, built):
        storage = self._storage()
        comparison = compare_models(
            storage,
            "src",
            (built.pattern_model, built.sequence_model),
            (built.pattern_model, built.sequence_model),
        )
        ok, reason = comparison.verdict()
        assert ok, reason
        assert comparison.anomaly_delta == 0
        assert comparison.coverage_delta == 0.0

    def test_broken_candidate_held_for_coverage(self, built):
        storage = self._storage()
        empty_patterns = PatternModel([])
        comparison = compare_models(
            storage,
            "src",
            (built.pattern_model, built.sequence_model),
            (empty_patterns, SequenceModel([])),
        )
        ok, reason = comparison.verdict()
        assert not ok
        assert "coverage" in reason

    def test_noisy_candidate_held_for_anomaly_budget(self, built):
        """A candidate whose automaton misfits normal traffic is held."""
        storage = self._storage()
        # Candidate sequence model: tighten an automaton so every normal
        # event violates its duration window.
        broken = SequenceModel.from_dict(built.sequence_model.to_dict())
        automaton = broken.automata[0]
        automaton.min_duration_millis = 0
        automaton.max_duration_millis = 1  # nothing fits
        comparison = compare_models(
            storage,
            "src",
            (built.pattern_model, built.sequence_model),
            (built.pattern_model, broken),
        )
        ok, reason = comparison.verdict()
        assert not ok
        assert "more anomalies" in reason

    def test_empty_archive_raises(self, built):
        with pytest.raises(ValueError):
            compare_models(
                LogStorage(),
                "src",
                (built.pattern_model, built.sequence_model),
                (built.pattern_model, built.sequence_model),
            )
