"""Unit tests for the dashboard back-end (ad-hoc queries, panels)."""

import pytest

from repro.service.dashboard import AdHocQuery, Dashboard
from repro.service.storage import AnomalyStorage, LogStorage, ModelStorage


def doc(type_="missing_end", source="s1", ts=100, severity=2, logs=None,
        reason="r"):
    return {
        "type": type_, "source": source, "timestamp_millis": ts,
        "severity": severity, "logs": logs or [], "reason": reason,
        "details": {},
    }


@pytest.fixture
def dashboard():
    storage = AnomalyStorage()
    storage.store(doc(ts=1_000))
    storage.store(doc(type_="unparsed_log", source="s2", ts=2_000,
                      severity=1, logs=["weird line"]))
    storage.store(doc(type_="duration_violation", ts=63_000, severity=3))
    storage.store(doc(ts=64_000))
    return Dashboard(storage)


class TestAdHocQuery:
    def test_no_query_returns_all(self, dashboard):
        assert len(dashboard.query()) == 4

    def test_type_filter(self, dashboard):
        docs = dashboard.query(AdHocQuery(type="missing_end"))
        assert len(docs) == 2

    def test_source_filter(self, dashboard):
        assert len(dashboard.query(AdHocQuery(source="s2"))) == 1

    def test_severity_filter(self, dashboard):
        assert len(dashboard.query(AdHocQuery(min_severity=2))) == 3

    def test_time_range(self, dashboard):
        docs = dashboard.query(AdHocQuery(time_range=(1_500, 63_500)))
        assert len(docs) == 2

    def test_text_search(self, dashboard):
        docs = dashboard.query(AdHocQuery(text="weird"))
        assert len(docs) == 1
        assert docs[0]["type"] == "unparsed_log"

    def test_predicate(self, dashboard):
        docs = dashboard.query(
            AdHocQuery(predicate=lambda d: d["severity"] == 3)
        )
        assert len(docs) == 1

    def test_combined_criteria_and_limit(self, dashboard):
        docs = dashboard.query(
            AdHocQuery(type="missing_end", min_severity=2, limit=1)
        )
        assert len(docs) == 1

    def test_time_range_excludes_unstamped(self):
        storage = AnomalyStorage()
        storage.store({"type": "x", "timestamp_millis": None,
                       "severity": 0, "logs": [], "reason": ""})
        dash = Dashboard(storage)
        assert dash.query(AdHocQuery(time_range=(0, 10))) == []


class TestPanels:
    def test_feed_most_recent_first(self, dashboard):
        feed = dashboard.anomaly_feed(limit=2)
        assert [d["timestamp_millis"] for d in feed] == [64_000, 63_000]

    def test_counts_by_type(self, dashboard):
        counts = dashboard.counts_by_type()
        assert counts == {
            "missing_end": 2, "unparsed_log": 1, "duration_violation": 1
        }

    def test_timeline_buckets(self, dashboard):
        timeline = dashboard.timeline(bucket_millis=60_000)
        assert timeline == [(0, 2), (60_000, 2)]

    def test_timeline_invalid_bucket(self, dashboard):
        with pytest.raises(ValueError):
            dashboard.timeline(bucket_millis=0)

    def test_render_text(self, dashboard):
        text = dashboard.render_text(feed_limit=3)
        assert "Anomalies: 4" in text
        assert "missing_end" in text


class TestModelPanelAndDrilldown:
    def test_model_summary(self):
        from repro.service.model_builder import ModelBuilder
        from repro.service.model_manager import ModelManager

        lines = []
        for i in range(6):
            eid = "e-%02d" % i
            lines += [
                "2016/05/09 10:%02d:01 app BEGIN work %s from 10.0.0.1"
                % (i, eid),
                "2016/05/09 10:%02d:05 app work %s DONE rc 1234567"
                % (i, eid),
            ]
        storage = ModelStorage()
        manager = ModelManager(storage)
        manager.register_built(ModelBuilder().build(lines))
        dash = Dashboard(AnomalyStorage(), model_storage=storage)
        summary = dash.model_summary()
        assert summary["patterns"]["count"] == 2
        assert summary["automata"]["count"] == 1
        assert summary["automata"]["details"][0]["trained_on_events"] == 6

    def test_model_summary_requires_storage(self, dashboard):
        with pytest.raises(RuntimeError):
            dashboard.model_summary()

    def test_context_logs(self):
        logs = LogStorage()
        for ts in (0, 10_000, 40_000, 90_000):
            logs.store("log@%d" % ts, "s1", timestamp_millis=ts)
        dash = Dashboard(AnomalyStorage(), log_storage=logs)
        context = dash.context_logs(doc(ts=30_000), window_millis=15_000)
        assert context == ["log@40000"]

    def test_context_logs_requires_storage(self, dashboard):
        with pytest.raises(RuntimeError):
            dashboard.context_logs(doc())

    def test_context_logs_without_timestamp(self):
        dash = Dashboard(AnomalyStorage(), log_storage=LogStorage())
        assert dash.context_logs({"source": "s", "timestamp_millis": None}) \
            == []
