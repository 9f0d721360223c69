"""Service checkpoint/recovery tests (the Section V-A state-loss story)."""

import json

import pytest

from tests.service.test_loglens_service import event_lines, trained_service

from repro.service.config import ServiceConfig
from repro.service.loglens_service import LogLensService


class TestCheckpointRecovery:
    def test_checkpoint_is_json_safe(self):
        service = trained_service()
        service.ingest(
            event_lines("ck-open", 10, finish=False), source="app"
        )
        service.run_until_drained()
        json.dumps(service.checkpoint())

    def test_open_event_survives_crash_and_restart(self):
        """An event in flight at crash time finalises after recovery."""
        service = trained_service()
        lines = event_lines("ck-1", 10)
        service.ingest(lines[:2], source="app")  # begin + middle only
        service.run_until_drained()
        assert service.open_event_count() == 1
        checkpoint = service.checkpoint()

        # "Crash": build a brand-new service and restore.
        replacement = LogLensService(config=ServiceConfig(num_partitions=2))
        replacement.restore_checkpoint(checkpoint)
        assert replacement.open_event_count() == 1

        # The end log arrives at the replacement: event closes cleanly.
        replacement.ingest(lines[2:], source="app")
        replacement.run_until_drained()
        replacement.final_flush()
        assert replacement.anomaly_storage.count() == 0
        assert replacement.open_event_count() == 0

    def test_anomalous_open_event_still_detected_after_recovery(self):
        service = trained_service()
        service.ingest(
            event_lines("ck-bad", 10, finish=False), source="app"
        )
        service.run_until_drained()
        checkpoint = service.checkpoint()

        replacement = LogLensService(config=ServiceConfig(num_partitions=2))
        replacement.restore_checkpoint(checkpoint)
        flushed = replacement.final_flush()
        assert flushed == 1
        docs = replacement.anomaly_storage.by_type("missing_end")
        assert len(docs) == 1

    def test_models_travel_with_the_checkpoint(self):
        service = trained_service()
        checkpoint = service.checkpoint()
        replacement = LogLensService(config=ServiceConfig(num_partitions=2))
        replacement.restore_checkpoint(checkpoint)
        # The replacement parses without retraining.
        replacement.ingest(event_lines("ck-2", 20), source="app")
        replacement.run_until_drained()
        replacement.final_flush()
        assert replacement.anomaly_storage.count() == 0

    def test_heartbeat_clocks_restored(self):
        service = trained_service()
        service.ingest(event_lines("ck-3", 10), source="app")
        service.run_until_drained()
        before = service.heartbeat_controller.estimated_time("app")
        assert before is not None
        replacement = LogLensService(config=ServiceConfig(num_partitions=2))
        replacement.restore_checkpoint(service.checkpoint())
        after = replacement.heartbeat_controller.estimated_time("app")
        assert after == before

    def test_partition_count_mismatch_rejected(self):
        service = trained_service()
        checkpoint = service.checkpoint()
        replacement = LogLensService(config=ServiceConfig(num_partitions=3))
        with pytest.raises(ValueError):
            replacement.restore_checkpoint(checkpoint)

    def test_step_counter_restored(self):
        service = trained_service()
        service.ingest(event_lines("ck-4", 10), source="app")
        service.run_until_drained()
        steps = service.report(include_metrics=False).steps
        replacement = LogLensService(config=ServiceConfig(num_partitions=2))
        replacement.restore_checkpoint(service.checkpoint())
        assert replacement.report(include_metrics=False).steps == steps
