"""Unit tests for detector state checkpointing (Section V-A motivation)."""

from repro.parsing.parser import ParsedLog
from repro.sequence.detector import LogSequenceDetector, OpenEvent
from repro.sequence.model import SequenceModel

from .test_detector import make_model, plog


class TestParsedLogDocument:
    def test_roundtrip(self):
        log = ParsedLog(
            raw="raw line",
            pattern_id=3,
            fields={"a": "x"},
            timestamp_millis=42,
            source="s",
        )
        assert ParsedLog.from_document(log.to_document()) == log

    def test_optional_fields(self):
        log = ParsedLog(raw="r", pattern_id=1, fields={})
        restored = ParsedLog.from_document(log.to_document())
        assert restored.timestamp_millis is None
        assert restored.source is None


class TestOpenEventDocument:
    def test_roundtrip_preserves_counts_and_times(self):
        event = OpenEvent(automaton_id=1, content="e1")
        event.absorb(plog(1, "e1", 100), is_end=False)
        event.absorb(plog(2, "e1", 200), is_end=False)
        event.absorb(plog(2, "e1", 300), is_end=False)
        restored = OpenEvent.from_document(event.to_document())
        assert restored.counts == event.counts
        assert restored.first_time == 100
        assert restored.last_time == 300
        assert restored.earliest == (100, 1)
        assert not restored.saw_end
        assert restored.first_pattern == 1


class TestDetectorSnapshot:
    def test_snapshot_restore_continues_detection(self):
        """An event opened before the checkpoint finalises after it."""
        model = make_model()
        detector = LogSequenceDetector(model)
        detector.process(plog(1, "e1", 0))
        detector.process(plog(2, "e1", 1000))
        snapshot = detector.snapshot()

        restored = LogSequenceDetector.restore(snapshot, model)
        assert restored.open_event_count == 1
        anomalies = restored.process(plog(3, "e1", 2000))
        assert anomalies == []  # the event completed normally

    def test_snapshot_is_json_safe(self):
        import json

        detector = LogSequenceDetector(make_model())
        detector.process(plog(1, "e1", 0))
        json.dumps(detector.snapshot())

    def test_restore_drops_orphaned_automata(self):
        model = make_model()
        detector = LogSequenceDetector(model)
        detector.process(plog(1, "e1", 0))
        snapshot = detector.snapshot()
        restored = LogSequenceDetector.restore(snapshot, SequenceModel([]))
        assert restored.open_event_count == 0

    def test_restored_clock_preserved(self):
        model = make_model()
        detector = LogSequenceDetector(model)
        detector.process(plog(1, "e1", 5_000))
        restored = LogSequenceDetector.restore(detector.snapshot(), model)
        # An old-timestamped heartbeat cannot regress the restored clock:
        # expiry still keys off 5000.
        anomalies = restored.process_heartbeat(5_000 + 6_001)
        assert len(anomalies) == 1

    def test_anomaly_identical_with_and_without_checkpoint(self):
        model = make_model()
        straight = LogSequenceDetector(model)
        outputs_a = []
        logs = [
            plog(1, "e1", 0),
            plog(2, "e1", 100),
            plog(3, "e1", 150),  # duration violation (too fast)
        ]
        for log in logs:
            outputs_a.extend(straight.process(log))

        checkpointed = LogSequenceDetector(model)
        checkpointed.process(logs[0])
        checkpointed = LogSequenceDetector.restore(
            checkpointed.snapshot(), model
        )
        outputs_b = []
        for log in logs[1:]:
            outputs_b.extend(checkpointed.process(log))

        assert len(outputs_a) == len(outputs_b) == 1
        assert outputs_a[0].type == outputs_b[0].type
        assert outputs_a[0].details["violations"] \
            == outputs_b[0].details["violations"]
