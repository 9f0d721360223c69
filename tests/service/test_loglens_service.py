"""Integration-grade unit tests for the fully wired LogLensService."""

import pytest

from repro.obs import MetricsRegistry
from repro.parsing.parser import FastLogParser, ParsedLog
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
        assert service.report(include_metrics=False).model_updates == 2


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


class TestIngestTakesLines:
    @pytest.mark.parametrize(
        "bare", ["one line", b"one line"], ids=["str", "bytes"]
    )
    def test_a_bare_string_is_refused_before_anything_is_produced(
        self, bare
    ):
        service = trained_service()
        with pytest.raises(TypeError):
            service.ingest(bare, source="app")
        assert sum(service.bus.end_offsets("logs.raw")) == 0
        assert service.step().ingested == 0
        assert service.ingest(["one line"], source="app") == 1
        assert service.step().ingested == 1

    def test_any_iterable_of_lines_is_taken(self):
        service = trained_service()
        lines = event_lines("it-1", 1)
        assert service.ingest(iter(lines), source="app") == len(lines)
        assert service.ingest((), source="app") == 0
        assert service.step().ingested == len(lines)
        assert service.log_storage.by_source("app") == lines


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
        lines = event_lines("fl-two", 30, finish=False)
        service.ingest(lines, source="app")
        reports = service.run_until_drained()
        service.final_flush()
        # No new anomaly: the automaton is gone; service never restarted.
        assert service.anomaly_storage.count() == 1
        # Zero downtime: the step that applies the update parses its
        # whole batch.
        assert reports[0].model_updates_applied == 1
        assert reports[0].parsed == reports[0].ingested == len(lines)

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
    def test_stats_keys_stable(self):
        service = trained_service()
        assert list(service.report(include_metrics=False).to_dict()) == [
            "steps", "logs_archived", "anomalies", "open_events",
            "parse_batches", "sequence_batches", "model_updates",
            "quarantine", "alerts",
        ]


class TestParseWorkers:
    def _ingest_everywhere(self, service, lines):
        """Ingest ``lines`` under several sources, so both partitions
        parse, and step until drained."""
        for i in range(6):
            service.ingest(lines, source="app-%d" % i)
        service.run_until_drained()

    def test_tokenizer_counts_land_in_the_service_registry(self):
        registry = MetricsRegistry()
        service = trained_service(metrics=registry)
        lines = event_lines("fl-a", 1) + event_lines("fl-b", 2)
        lines += ["completely unknown format !!"] * 4
        lines = (lines * 3)[:30]
        service.ingest(lines, source="app")
        service.run_until_drained()
        assert registry.counter("tokenizer.logs").value == 30
        assert registry.counter("parser.parsed").value + registry.counter(
            "parser.anomalies"
        ).value == 30

    def test_republish_keeps_each_workers_parser_and_tokenizer(self):
        service = trained_service(metrics=MetricsRegistry())
        lines = event_lines("fl-a", 1) + ["completely unknown format !!"]
        self._ingest_everywhere(service, lines)
        workers = service.parse_ctx.workers
        parsers = [w._loglens_parser for w in workers]
        tokenizers = [p.tokenizer for p in parsers]
        indexes = [p.index for p in parsers]
        models = [p.model for p in parsers]

        service.model_manager.publish_all()
        service.flush_model_updates()
        self._ingest_everywhere(service, lines)

        model = parsers[0].model
        assert model is not models[0]
        for worker, parser, tokenizer, index in zip(
            workers, parsers, tokenizers, indexes
        ):
            assert worker._loglens_parser is parser
            assert parser.tokenizer is tokenizer
            assert parser.model is model
            assert parser.index is not index
        fixed = training_lines(4) + [
            "completely unknown format !!",
            "2016/05/09 10:07:01 gate OPEN flow x from",
        ]
        fresh = FastLogParser(model, metrics=MetricsRegistry())
        for parser in parsers:
            assert [_doc(parser.parse(line)) for line in fixed] == [
                _doc(fresh.parse(line)) for line in fixed
            ]


def _doc(result):
    if isinstance(result, ParsedLog):
        return result.to_document()
    return result.to_dict()
