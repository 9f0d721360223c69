"""End-to-end: a config *file* drives a service whose alert fires,
holds while firing, and resolves on real log traffic — on both storage
planes.
"""

from repro.alerts import FIRING, OK, RESOLVED, AlertHistory, CollectingSink
from repro.service.config import ServiceConfig
from repro.service.loglens_service import LogLensService
from repro.service.sqlite_store import SQLiteDatabase

CONFIG_TOML = """
[service]
num_partitions = 2

[storage]
spec = "%(storage)s"

[[alerts.rules]]
name = "unparsed-burst"
condition = ">="
threshold = 1.0
window_millis = 120000
anomaly_type = "unparsed_log"

[[alerts.sinks]]
type = "collect"
"""


def event_lines(eid, minute):
    return [
        "2016/05/09 10:%02d:01 gate OPEN flow %s from 10.0.0.9"
        % (minute, eid),
        "2016/05/09 10:%02d:03 relay forwarding flow %s bytes %d"
        % (minute, eid, 5_000_000 + minute),
        "2016/05/09 10:%02d:09 gate CLOSE flow %s status done"
        % (minute, eid),
    ]


def training_lines(n=12):
    lines = []
    for i in range(n):
        lines += event_lines("fl-%04d" % i, i % 50)
    return lines


def service_from_file(tmp_path, storage):
    path = tmp_path / "loglens.toml"
    path.write_text(CONFIG_TOML % {"storage": storage})
    config = ServiceConfig.from_file(path)
    service = LogLensService(config=config)
    service.train(training_lines())
    return service


def rule_state(service):
    return service.alert_evaluator.report_section()["states"][
        "unparsed-burst"
    ]


def run_alert_episode(service):
    """Drive fire → hold-while-firing → resolve; return the sink."""
    evaluator = service.alert_evaluator
    (sink,) = evaluator.sinks
    assert isinstance(sink, CollectingSink)
    assert rule_state(service) == OK

    # A garbage line inside otherwise-normal traffic: the unparsed_log
    # anomaly is stamped with extrapolated log time and the rule fires
    # on the same heartbeat cycle.
    service.ingest(
        event_lines("fl-ok", 30) + ["?? totally unreadable line ??"],
        source="app",
    )
    service.run_until_drained()
    assert rule_state(service) == FIRING
    assert [e.state for e in sink.events] == [FIRING]

    # More traffic while still inside the window: one fire per episode.
    service.ingest(event_lines("fl-ok2", 31), source="app")
    service.run_until_drained()
    assert rule_state(service) == FIRING
    assert len(sink.events) == 1

    # Ten minutes later the 2-minute window is clean: resolves (and
    # further quiet evaluations within the same drain settle back to OK).
    service.ingest(event_lines("fl-late", 40), source="app")
    service.run_until_drained()
    assert rule_state(service) in (RESOLVED, OK)
    assert [e.state for e in sink.events] == [FIRING, RESOLVED]
    return sink


class TestMemoryStorage:
    def test_full_lifecycle_from_config_file(self, tmp_path):
        service = service_from_file(tmp_path, "memory")
        try:
            run_alert_episode(service)
            report = service.report(include_metrics=False)
            section = report.alerts
            assert section["fired"] == 1
            assert section["resolved"] == 1
            assert section["delivered"] == 2
            assert section["dead_lettered"] == 0
            assert section["states"]["unparsed-burst"] in (RESOLVED, OK)
            assert section["firing"] == []
            assert section["history"] == 2
            history = service.alert_history.all()
            assert [e["state"] for e in history] == [FIRING, RESOLVED]
            # Event timestamps are log time, not wall time: both fall
            # on 2016/05/09 and the resolve is later than the fire.
            fire, resolve = history
            assert fire["timestamp_millis"] < resolve["timestamp_millis"]
        finally:
            service.close()

    def test_step_report_counts_alert_events(self, tmp_path):
        service = service_from_file(tmp_path, "memory")
        try:
            service.ingest(
                event_lines("fl-ok", 30) + ["?? unreadable ??"],
                source="app",
            )
            reports = service.run_until_drained()
            assert sum(r.alerts for r in reports) == 1
        finally:
            service.close()


class TestSQLiteStorage:
    def test_history_lands_in_the_alerts_table(self, tmp_path):
        db_path = tmp_path / "loglens.db"
        service = service_from_file(tmp_path, "sqlite:%s" % db_path)
        try:
            run_alert_episode(service)
            memory_view = [
                {k: v for k, v in doc.items() if k != "_id"}
                for doc in service.alert_history.all()
            ]
        finally:
            service.close()

        # The durable record survives the service: reopen the database
        # cold and read the same events back.
        database = SQLiteDatabase(str(db_path))
        try:
            store = AlertHistory(database=database)
            persisted = [
                {k: v for k, v in doc.items() if k != "_id"}
                for doc in store.all()
            ]
        finally:
            database.close()
        assert persisted == memory_view
        assert [e["state"] for e in persisted] == [FIRING, RESOLVED]


class TestNoRules:
    def test_alerting_is_inert_without_rules(self, tmp_path):
        path = tmp_path / "bare.toml"
        path.write_text(
            '[service]\nnum_partitions = 2\n'
        )
        config = ServiceConfig.from_file(path)
        service = LogLensService(config=config)
        try:
            service.train(training_lines())
            service.ingest(["?? unreadable ??"], source="app")
            reports = service.run_until_drained()
            assert sum(r.alerts for r in reports) == 0
            assert service.alert_evaluator.rules == ()
            # The section still renders (empty) — the report shape does
            # not depend on whether rules are configured.
            report = service.report(include_metrics=False)
            assert report.alerts["rules"] == 0
            assert report.alerts["history"] == 0
        finally:
            service.close()
