"""Service-level fault tolerance and the report() facade."""

import json

import pytest

from tests.service.test_loglens_service import (
    event_lines,
    trained_service,
    training_lines,
)

from repro.errors import TopicNotFoundError
from repro.faults import FaultPlan
from repro.service import ServiceReport, dead_letter_topic
from repro.service.config import ServiceConfig
from repro.service.loglens_service import PARSE_STAGE, LogLensService

LEGACY_STATS_KEYS = [
    "steps", "logs_archived", "anomalies", "open_events",
    "parse_batches", "sequence_batches", "model_updates",
]


class TestTransientFaults:
    def test_transient_parse_failures_heal_with_zero_loss(self):
        """The acceptance scenario, end to end through the service."""
        plan = FaultPlan().fail_first("operator:flat_map:*", 2)
        service = trained_service(fault_plan=plan)
        service.ingest(event_lines("ft-ok", 10), source="app")
        reports = service.run_until_drained()
        service.final_flush()
        assert service.anomaly_storage.count() == 0  # nothing lost
        assert service.retries_total() == 2
        assert service.quarantined_total() == 0
        assert sum(r.retries for r in reports) == 2
        assert plan.injected_total() == 2

    def test_default_policy_does_not_sleep(self):
        """The service default is no-wait retries on a virtual clock."""
        plan = FaultPlan().fail_first("operator:flat_map:*", 2)
        service = trained_service(fault_plan=plan)
        service.ingest(event_lines("ft-clk", 10), source="app")
        service.run_until_drained()
        assert service.retry_policy.clock.total_slept == 0.0


class TestPoisonRecords:
    def poisoned_service(self):
        plan = FaultPlan().poison(
            "operator:flat_map:*",
            lambda r: "POISON" in r.value,
        )
        service = trained_service(fault_plan=plan)
        lines = event_lines("dl-1", 10)
        service.ingest(
            lines[:1] + ["POISON payload line"] + lines[1:], source="app"
        )
        return service

    def test_poison_record_lands_in_dead_letter_topic(self):
        service = self.poisoned_service()
        reports = service.run_until_drained()
        service.final_flush()
        # The batch completed: the healthy event closed with no anomaly,
        # and the poison line is in quarantine, not lost or misreported.
        assert service.anomaly_storage.count() == 0
        assert sum(r.quarantined for r in reports) == 1
        assert service.quarantined_total() == 1
        assert service.dead_letter_depth() == 1
        assert service.bus.dead_letter_topics() == [PARSE_STAGE]
        assert dead_letter_topic(PARSE_STAGE) in service.bus.topics()

    def test_envelope_carries_value_and_failure_metadata(self):
        service = self.poisoned_service()
        service.run_until_drained()
        (message,) = service.drain_dead_letters()
        assert service.dead_letter_depth() == 0  # drained exactly once
        assert service.drain_dead_letters() == []
        envelope = message.value
        assert envelope["origin"] == PARSE_STAGE
        assert envelope["value"]["raw"] == "POISON payload line"
        assert envelope["error"].startswith("FaultInjected")
        meta = envelope["metadata"]
        assert meta["stage"] == PARSE_STAGE
        assert meta["source"] == "app"
        assert meta["operator_kind"] == "flat_map"
        assert meta["error_type"] == "FaultInjected"
        assert meta["attempts"] == 3  # the full default retry budget

    def test_sourceless_poison_keeps_its_payload_as_produced(self):
        plan = FaultPlan().poison(
            "operator:flat_map:*",
            lambda r: "POISON" in r.value,
        )
        service = trained_service(fault_plan=plan)
        # Produced without a key: the line is archived under "unknown",
        # and its dead letter names the same source.
        service.bus.produce("logs.raw", "POISON payload line")
        service.run_until_drained()
        (message,) = service.drain_dead_letters()
        envelope = message.value
        assert envelope["metadata"]["source"] == "unknown"
        assert envelope["value"] == {
            "raw": "POISON payload line",
            "source": "unknown",
        }

    def test_quarantine_is_observable_in_metrics(self):
        from repro.obs import MetricsRegistry

        plan = FaultPlan().poison(
            "operator:flat_map:*",
            lambda r: "POISON" in r.value,
        )
        service = trained_service(
            fault_plan=plan, metrics=MetricsRegistry()
        )
        service.ingest(["POISON payload line"], source="app")
        service.run_until_drained()
        snapshot = service.report().metrics
        assert snapshot["engine.quarantined_total"][0]["value"] == 1
        (dead,) = snapshot["bus.dead_lettered"]
        assert dead["labels"] == {"topic": PARSE_STAGE}
        assert dead["value"] == 1
        (depth,) = snapshot["bus.dead_letter_depth"]
        assert depth["value"] == 1


class TestReportFacade:
    def test_counters_keep_exactly_the_legacy_keys(self):
        service = trained_service()
        report = service.report(include_metrics=False)
        assert isinstance(report, ServiceReport)
        # The counters lead the export, in their historical order.
        assert list(report.to_dict())[:7] == LEGACY_STATS_KEYS

    def test_report_merges_quarantine_and_metrics(self):
        plan = FaultPlan().poison(
            "operator:flat_map:*", lambda r: "BAD" in r.value
        )
        service = trained_service(fault_plan=plan)
        service.ingest(["BAD line"], source="app")
        service.run_until_drained()
        report = service.report()
        assert report.quarantine.quarantined == 1
        assert report.quarantine.dead_letter_depth == 1
        assert report.quarantine.dead_letter_origins == [PARSE_STAGE]
        assert report.metrics is not None
        doc = report.to_dict()
        json.dumps(doc)  # JSON-safe
        assert doc["quarantine"]["quarantined"] == 1
        assert set(doc) >= set(LEGACY_STATS_KEYS)


class TestHeartbeatFaults:
    def test_one_sources_failure_does_not_silence_the_others(self):
        from repro.obs import MetricsRegistry
        from repro.service.heartbeat import HeartbeatController

        registry = MetricsRegistry()
        plan = FaultPlan().poison(
            "heartbeat.emit", lambda source: source == "flaky"
        )
        controller = HeartbeatController(
            metrics=registry, fault_plan=plan
        )
        controller.observe("steady", 1000)
        controller.observe("steady", 2000)
        controller.observe("flaky", 1000)
        controller.observe("flaky", 2000)
        beats = controller.tick()
        assert [b.source for b in beats] == ["steady"]
        assert registry.counter("heartbeat.emit_errors").value == 1
        # The flaky source resumes beating once the fault clears.
        plan2 = FaultPlan()  # no rules
        controller._fault_plan = plan2
        beats = controller.tick()
        assert sorted(b.source for b in beats) == ["flaky", "steady"]


class TestTopicErrors:
    def test_unknown_topic_error_lists_known_topics(self):
        service = trained_service()
        with pytest.raises(TopicNotFoundError) as exc:
            service.bus.consumer("no.such.topic", group="g")
        assert exc.value.topic == "no.such.topic"
        assert "logs.raw" in exc.value.known_topics
        assert "known topics" in str(exc.value)
        assert "logs.raw" in str(exc.value)

    def test_unknown_topic_error_is_still_a_key_error(self):
        service = trained_service()
        with pytest.raises(KeyError):
            service.bus.produce("no.such.topic", {"x": 1})


class TestCheckpointUnderFaults:
    def test_restore_under_faults_matches_failure_free_run(self):
        """Checkpoint, crash, restore with faults injected: the service
        converges to the same detection state as a failure-free run."""
        lines = (
            event_lines("cf-done", 10)
            + event_lines("cf-open", 11, finish=False)
        )

        baseline = trained_service()
        baseline.ingest(lines, source="app")
        baseline.run_until_drained()
        expected_open = baseline.open_event_count()
        expected_anomalies = baseline.anomaly_storage.count()

        faulty = trained_service()
        faulty.ingest(lines[:3], source="app")  # first event completes
        faulty.run_until_drained()
        checkpoint = faulty.checkpoint()

        plan = FaultPlan().fail_first("operator:flat_map:*", 2)
        replacement = LogLensService(config=ServiceConfig(num_partitions=2, fault_plan=plan))
        replacement.restore_checkpoint(checkpoint)
        replacement.ingest(lines[3:], source="app")
        replacement.run_until_drained()

        assert replacement.open_event_count() == expected_open
        assert (
            replacement.anomaly_storage.count() == expected_anomalies
        )
        # The faults really fired — and were healed, not quarantined.
        assert replacement.retries_total() == 2
        assert replacement.quarantined_total() == 0
        assert baseline.quarantined_total() == 0

        # Both runs agree on the unfinished event once flushed.
        assert replacement.final_flush() == baseline.final_flush()
        assert len(
            replacement.anomaly_storage.by_type("missing_end")
        ) == 1


class TestStateKeptOnce:
    """Each fact the driver keeps has one home, so a long run that
    drains its dead letters holds no second copy of them."""

    def test_drained_dead_letters_leave_no_copy(self):
        plan = FaultPlan().poison(
            "operator:flat_map:*",
            lambda r: isinstance(r.value, str) and "POISON" in r.value,
        )
        service = trained_service(fault_plan=plan)
        drained = 0
        for step in range(20):
            service.ingest(
                event_lines("st-%d" % step, step % 50)
                + ["POISON line %d.%d" % (step, k) for k in range(3)],
                source="app",
            )
            assert service.step().quarantined == 3
            drained += len(service.drain_dead_letters())
        assert drained == 60
        report = service.report(include_metrics=False)
        assert report.quarantine.quarantined == 60
        assert report.quarantine.dead_letter_depth == 0

    def test_relearn_loop_leaves_nothing_on_the_controller(self):
        service = trained_service()
        service.ingest(training_lines(6), source="app")
        service.run_until_drained()
        for version in range(2, 6):
            service.model_manager.rebuild(service.log_storage, "app")
            assert service.step().model_updates_applied == 2
            assert (
                service.model_storage.latest_version("pattern_model")
                == version
            )
        controller = service.model_controller
        assert list(vars(controller)) == ["_bindings"]
        assert sorted(controller._bindings) == [
            "pattern_model", "sequence_model",
        ]
