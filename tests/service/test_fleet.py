"""Unit tests for the fleet service (per-source pipelines)."""

import pytest

from repro.service.config import ServiceConfig
from repro.service.fleet import FleetService
from repro.service.loglens_service import LogLensService


def web_train(n=8):
    lines = []
    for i in range(n):
        eid = "w-%03d" % i
        lines += [
            "2016/05/09 10:%02d:01 front ACCEPT req %s peer 10.9.0.7"
            % (i, eid),
            "2016/05/09 10:%02d:05 front req %s REPLIED bytes %d"
            % (i, eid, 4_000_000 + i),
        ]
    return lines


def db_train(n=8):
    lines = []
    for i in range(n):
        eid = "d-%03d" % i
        lines += [
            "2016/05/09 10:%02d:02 store OPEN cursor %s mode snapshot"
            % (i, eid),
            "2016/05/09 10:%02d:06 store cursor %s RELEASED rows %d"
            % (i, eid, 7_000_000 + i),
        ]
    return lines


@pytest.fixture
def fleet():
    fleet = FleetService(
        service_factory=lambda: LogLensService(config=ServiceConfig(num_partitions=2))
    )
    fleet.add_source("web", web_train())
    fleet.add_source("db", db_train())
    return fleet


class TestProvisioning:
    def test_sources(self, fleet):
        assert fleet.sources() == ["db", "web"]
        assert "web" in fleet and "mail" not in fleet

    def test_duplicate_source_raises(self, fleet):
        with pytest.raises(ValueError):
            fleet.add_source("web", web_train(2))

    def test_remove_source(self, fleet):
        fleet.remove_source("db")
        assert fleet.sources() == ["web"]
        with pytest.raises(KeyError):
            fleet.remove_source("db")

    def test_service_for_unknown(self, fleet):
        with pytest.raises(KeyError):
            fleet.service_for("mail")


class TestRouting:
    def test_a_bare_string_is_refused(self, fleet):
        with pytest.raises(TypeError):
            fleet.ingest("web", "one line")
        assert sum(fleet.service_for("web").bus.end_offsets("logs.raw")) == 0

    def test_clean_traffic_both_sources(self, fleet):
        fleet.ingest("web", web_train(2)[:4])
        fleet.ingest("db", db_train(2)[:4])
        fleet.run_until_drained()
        fleet.final_flush()
        assert fleet.anomaly_count() == 0

    def test_cross_source_isolation(self, fleet):
        """db-shaped logs sent to the web pipeline are anomalies; the
        same logs on the db pipeline are clean."""
        lines = db_train(1)[:2]
        fleet.ingest("web", lines)
        fleet.run_until_drained()
        fleet.final_flush()
        assert fleet.service_for("web").anomaly_storage.count() == 2
        assert fleet.service_for("db").anomaly_storage.count() == 0

    def test_incomplete_event_detected_per_source(self, fleet):
        fleet.ingest(
            "db",
            ["2016/05/09 11:00:02 store OPEN cursor x-9 mode snapshot"],
        )
        fleet.run_until_drained()
        assert fleet.open_event_count() == 1
        assert fleet.final_flush() == 1
        docs = fleet.anomalies()
        assert len(docs) == 1
        assert docs[0]["type"] == "missing_end"


class TestFleetViews:
    def test_anomalies_merged_and_time_ordered(self, fleet):
        fleet.ingest(
            "db",
            ["2016/05/09 11:30:02 store OPEN cursor z-1 mode snapshot"],
        )
        fleet.ingest(
            "web",
            ["2016/05/09 11:05:01 front ACCEPT req z-2 peer 10.9.0.7"],
        )
        fleet.run_until_drained()
        fleet.final_flush()
        docs = fleet.anomalies()
        stamps = [d["timestamp_millis"] for d in docs]
        assert stamps == sorted(stamps)

    def test_stats_per_source(self, fleet):
        fleet.ingest("web", web_train(1)[:2])
        fleet.run_until_drained()
        reports = fleet.reports()
        assert set(reports) == {"db", "web"}
        assert reports["web"].logs_archived == 2
        assert reports["db"].logs_archived == 0
