"""Whole-system integration: agents → bus → service → anomaly storage."""

from repro.core.pipeline import LogLens
from repro.datasets.trace import generate_d1
from repro.service.agent import ReplayAgent


class TestD1ThroughService:
    def test_streaming_replay_matches_offline_detection(self):
        """The service (streaming, partitioned, heartbeats) finds the same
        anomalies as the offline facade."""
        dataset = generate_d1(events_per_workflow=40)
        lens = LogLens().fit(dataset.train)
        offline = lens.detect(dataset.test, flush_open_events=True)

        service = lens.to_service()
        service.ingest(dataset.test, source="d1")
        service.run_until_drained()
        service.final_flush()
        assert service.anomaly_storage.count() == len(offline) == 21

    def test_heartbeats_find_missing_end_in_real_time(self):
        """With trailing heartbeat-only steps (no flush), the heartbeat
        controller alone recovers the missing-end anomaly."""
        dataset = generate_d1(events_per_workflow=40)
        lens = LogLens().fit(dataset.train)
        service = lens.to_service()
        service.ingest(dataset.test, source="d1")
        service.run_until_drained()
        for _ in range(400):
            service.step()
            if service.open_event_count() == 0:
                break
        assert service.open_event_count() == 0
        assert service.anomaly_storage.count() == 21


class TestAgentDrivenIngestion:
    def test_replay_agent_to_service_bus(self):
        dataset = generate_d1(events_per_workflow=30)
        lens = LogLens().fit(dataset.train)
        service = lens.to_service()
        agent = ReplayAgent(
            service.bus, "logs.raw", "agent-1", dataset.test,
            logs_per_step=500,
        )
        while not agent.exhausted:
            agent.step()
            service.step()
        service.run_until_drained()
        service.final_flush()
        assert service.anomaly_storage.count() == 21
        assert service.log_storage.count("agent-1") == len(dataset.test)


class TestMultiSourceIsolation:
    def test_two_sources_interleaved(self):
        """Heterogeneous sources share the pipeline without interference."""
        dataset = generate_d1(events_per_workflow=30)
        lens = LogLens().fit(dataset.train)
        service = lens.to_service()
        half = len(dataset.test) // 2
        service.ingest(dataset.test[:half], source="dc-east")
        service.ingest(dataset.test[half:], source="dc-west")
        service.run_until_drained()
        service.final_flush()
        # Events keyed by content, not source: totals still add up.
        assert service.anomaly_storage.count() == 21
        assert set(service.log_storage.sources()) == {
            "dc-east", "dc-west"
        }
