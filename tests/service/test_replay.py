"""Unit tests for offline model replay."""

import pytest

from repro.service.model_builder import ModelBuilder
from repro.service.replay import replay


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
        assert (outcome.logs_replayed, outcome.parsed) == (0, 0)
        assert outcome.anomaly_count == 0
