"""Integration-grade unit tests for the fully wired LogLensService."""

from repro.service.config import ServiceConfig
from repro.service.loglens_service import LogLensService


def event_lines(eid, minute, finish=True, extra_middle=0):
    lines = [
        "2016/05/09 10:%02d:01 gate OPEN flow %s from 10.0.0.9"
        % (minute, eid),
        "2016/05/09 10:%02d:03 relay forwarding flow %s bytes %d"
        % (minute, eid, 5_000_000 + minute),
    ]
    for k in range(extra_middle):
        lines.append(
            "2016/05/09 10:%02d:%02d relay forwarding flow %s bytes %d"
            % (minute, 4 + k, eid, 6_000_000 + k)
        )
    if finish:
        lines.append(
            "2016/05/09 10:%02d:09 gate CLOSE flow %s status done"
            % (minute, eid)
        )
    return lines


def training_lines(n=12):
    lines = []
    for i in range(n):
        lines += event_lines("fl-%04d" % i, i % 50, extra_middle=i % 2)
    return lines


def trained_service(**kwargs):
    service = LogLensService(config=ServiceConfig(num_partitions=2, **kwargs))
    service.train(training_lines())
    return service


class TestTraining:
    def test_train_publishes_models(self):
        service = trained_service()
        assert service.model_storage.latest_version("pattern_model") == 1
        assert service.model_storage.latest_version("sequence_model") == 1
        stats = service.report(include_metrics=False).counters()
        assert stats["model_updates"] == 2
        assert stats["downtime_seconds"] == 0.0


class TestEndToEnd:
    def test_normal_traffic_no_anomalies(self):
        service = trained_service()
        service.ingest(event_lines("fl-x", 30), source="app")
        service.run_until_drained()
        service.final_flush()
        assert service.anomaly_storage.count() == 0

    def test_unparsed_log_reported(self):
        service = trained_service()
        service.ingest(["completely unknown format !!"], source="app")
        service.run_until_drained()
        docs = service.anomaly_storage.by_type("unparsed_log")
        assert len(docs) == 1
        assert docs[0]["source"] == "app"

    def test_missing_end_caught_by_final_flush(self):
        service = trained_service()
        service.ingest(
            event_lines("fl-bad", 40, finish=False), source="app"
        )
        service.run_until_drained()
        assert service.anomaly_storage.count() == 0
        assert service.open_event_count() == 1
        flushed = service.final_flush()
        assert flushed == 1
        assert len(service.anomaly_storage.by_type("missing_end")) == 1

    def test_missing_end_caught_by_heartbeats(self):
        """Real-time reporting via heartbeat expiry (no final flush)."""
        service = trained_service()
        service.ingest(
            event_lines("fl-bad", 0, finish=False), source="app"
        )
        service.run_until_drained()
        # Trailing heartbeat-only steps keep advancing log time until the
        # open event expires.
        for _ in range(60):
            service.step()
            if service.anomaly_storage.count():
                break
        assert len(service.anomaly_storage.by_type("missing_end")) == 1
        assert service.open_event_count() == 0

    def test_heartbeats_disabled_never_expires(self):
        service = trained_service(heartbeats_enabled=False)
        service.ingest(
            event_lines("fl-bad", 0, finish=False), source="app"
        )
        service.run_until_drained()
        for _ in range(60):
            service.step()
        assert service.anomaly_storage.count() == 0
        assert service.open_event_count() == 1

    def test_logs_archived(self):
        service = trained_service()
        service.ingest(event_lines("fl-y", 10), source="app")
        service.run_until_drained()
        assert service.log_storage.count("app") == 3


class TestLogManagerToParser:
    def test_lines_cross_one_topic_and_one_parse_sink(self):
        from repro.ingest.server import service_pending

        service = trained_service()
        total = 0
        for minute in range(4):
            lines = event_lines("fl-hop%d" % minute, minute) + [
                "completely unknown format %d !!" % minute
            ]
            service.ingest(lines, source="app")
            total += len(lines)
            assert service_pending(service) == len(lines)
            report = service.step()
            assert service_pending(service) == 0
            assert (report.ingested, report.parsed) == (4, 3)
            assert report.stateless_anomalies == 1
        assert service.bus.topics() == ["logs.raw"]
        assert sum(service.bus.end_offsets("logs.raw")) == total
        assert [n.kind for n in service.parse_ctx._nodes.values()] == [
            "source", "flat_map", "sink",
        ]
        assert service.log_storage.count("app") == total


class TestLiveModelUpdate:
    def test_delete_automaton_without_restart(self):
        """Table V semantics on the running service."""
        service = trained_service()
        # First bad event is detected.
        service.ingest(
            event_lines("fl-one", 0, finish=False), source="app"
        )
        service.run_until_drained()
        service.final_flush()
        assert service.anomaly_storage.count() == 1
        # Delete the only automaton through the management plane.
        service.model_manager.delete_automaton(1)
        service.ingest(
            event_lines("fl-two", 30, finish=False), source="app"
        )
        service.run_until_drained()
        service.final_flush()
        # No new anomaly: the automaton is gone; service never restarted.
        assert service.anomaly_storage.count() == 1
        assert service.report(include_metrics=False).counters()["downtime_seconds"] == 0.0

    def test_pattern_model_update_changes_parsing(self):
        service = trained_service()
        editor = service.model_manager.edit_patterns()
        added = editor.add_pattern("custom %{WORD:w} marker")
        service.model_manager.commit_pattern_edits(editor)
        service.ingest(["custom hello marker"], source="app")
        service.run_until_drained()
        assert service.anomaly_storage.count() == 0
        assert added.pattern_id > 0

    def test_rebuild_from_archived_logs(self):
        """The data-drift automation: relearn from stored logs."""
        service = trained_service()
        service.ingest(training_lines(6), source="app")
        service.run_until_drained()
        built = service.model_manager.rebuild(service.log_storage, "app")
        assert len(built.pattern_model) >= 1
        assert service.model_storage.latest_version("pattern_model") == 2


class TestHeartbeatCadence:
    def test_heartbeats_only_every_n_steps(self):
        service = trained_service(heartbeat_period_steps=3)
        service.ingest(event_lines("fl-c", 5), source="app")
        reports = [service.step() for _ in range(6)]
        hb_steps = [i for i, r in enumerate(reports, 1) if r.heartbeats]
        # Heartbeats fire on steps 3 and 6 only (after a source is known).
        assert hb_steps == [3, 6]

    def test_stats_keys_stable(self):
        service = trained_service()
        stats = service.report(include_metrics=False).counters()
        assert set(stats) == {
            "steps", "logs_archived", "anomalies", "open_events",
            "parse_batches", "sequence_batches", "model_updates",
            "downtime_seconds",
        }
