"""Unit tests for per-source model management."""

import pytest

from repro.core.anomaly import AnomalyType
from repro.core.multi import MultiSourceLogLens


def app_logs(n=6):
    lines = []
    for i in range(n):
        eid = "ap-%03d" % i
        lines += [
            "2016/05/09 20:%02d:01 web GET /orders req %s from 10.0.0.4"
            % (i, eid),
            "2016/05/09 20:%02d:04 web req %s served status OK" % (i, eid),
        ]
    return lines


def db_logs(n=6):
    lines = []
    for i in range(n):
        eid = "tx-%03d" % i
        lines += [
            "2016/05/09 20:%02d:01 db BEGIN txn %s isolation high" % (i, eid),
            "2016/05/09 20:%02d:05 db COMMIT txn %s rows %d"
            % (i, eid, 5_000_000 + i),
        ]
    return lines


@pytest.fixture
def multi():
    m = MultiSourceLogLens()
    m.fit_source("web", app_logs())
    m.fit_source("db", db_logs())
    return m


class TestFitAndRoute:
    def test_sources(self, multi):
        assert multi.sources() == ["db", "web"]
        assert "web" in multi
        assert "mail" not in multi

    def test_per_source_models_differ(self, multi):
        assert multi.lens_for("web").patterns \
            != multi.lens_for("db").patterns

    def test_lens_for_unknown_raises(self, multi):
        with pytest.raises(KeyError):
            multi.lens_for("mail")

    def test_detect_routes_to_right_model(self, multi):
        # A db log fed to the web models would be unparsed; routed to the
        # db models it is clean.
        line1 = "2016/05/09 21:00:01 db BEGIN txn tz-1 isolation high"
        line2 = "2016/05/09 21:00:05 db COMMIT txn tz-1 rows 7777777"
        assert multi.detect("db", [line1, line2]) == []
        anomalies = multi.detect("web", [line1, line2])
        assert all(
            a.type is AnomalyType.UNPARSED_LOG for a in anomalies
        )

    def test_detect_mixed_demultiplexes(self, multi):
        tagged = [
            ("web", "2016/05/09 21:10:01 web GET /orders req mx-1 "
                    "from 10.0.0.4"),
            ("db", "2016/05/09 21:10:01 db BEGIN txn mx-2 isolation high"),
            ("web", "2016/05/09 21:10:04 web req mx-1 served status OK"),
            ("db", "2016/05/09 21:10:05 db COMMIT txn mx-2 rows 1234567"),
        ]
        assert multi.detect_mixed(tagged) == []

    def test_mixed_detects_cross_source_anomalies(self, multi):
        tagged = [
            ("web", "2016/05/09 21:20:01 web GET /orders req mx-3 "
                    "from 10.0.0.4"),
            # web event never served; db event complete.
            ("db", "2016/05/09 21:20:01 db BEGIN txn mx-4 isolation high"),
            ("db", "2016/05/09 21:20:05 db COMMIT txn mx-4 rows 1234567"),
        ]
        anomalies = multi.detect_mixed(tagged)
        assert len(anomalies) == 1
        assert anomalies[0].type is AnomalyType.MISSING_END
        assert anomalies[0].source == "web"


class TestUnknownSources:
    def test_lenient_mode_reports_anomalies(self, multi):
        anomalies = multi.detect("mail", ["some mail log"])
        assert len(anomalies) == 1
        assert anomalies[0].source == "mail"
        assert "no models trained" in anomalies[0].reason

    def test_strict_mode_raises(self):
        multi = MultiSourceLogLens(strict=True)
        with pytest.raises(KeyError):
            multi.detect("mail", ["x"])

    def test_retrain_replaces_models(self, multi):
        old = multi.lens_for("web")
        multi.fit_source("web", app_logs(4))
        assert multi.lens_for("web") is not old
