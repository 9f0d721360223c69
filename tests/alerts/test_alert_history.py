"""AlertHistory: memory and SQLite backends must answer identically."""

import pytest

from repro.alerts import AlertHistory
from repro.obs import NullRegistry
from repro.service.sqlite_store import SQLiteDatabase


def _event(i, rule, state):
    return {
        "rule": rule,
        "state": state,
        "value": float(i),
        "threshold": 1.0,
        "condition": ">",
        "signal": "anomaly_rate",
        "timestamp_millis": i * 1_000,
        "window_millis": 60_000,
        "dedup_key": rule,
    }


EVENTS = [
    _event(1, "burst", "firing"),
    _event(2, "burst", "resolved"),
    _event(3, "quiet", "firing"),
    _event(4, "burst", "firing"),
    _event(5, "quiet", "resolved"),
]


@pytest.fixture(params=["memory", "sqlite"])
def history(request, tmp_path):
    if request.param == "memory":
        yield AlertHistory(metrics=NullRegistry())
        return
    database = SQLiteDatabase(str(tmp_path / "alerts.db"))
    try:
        yield AlertHistory(database=database)
    finally:
        database.close()


def seed(history):
    for event in EVENTS:
        history.append(dict(event))


def strip_ids(docs):
    return [{k: v for k, v in d.items() if k != "_id"} for d in docs]


class TestBackendParity:
    def test_all_preserves_append_order(self, history):
        seed(history)
        assert strip_ids(history.all()) == EVENTS

    def test_for_rule(self, history):
        seed(history)
        got = strip_ids(history.for_rule("burst"))
        assert got == [e for e in EVENTS if e["rule"] == "burst"]

    def test_by_state(self, history):
        seed(history)
        got = strip_ids(history.by_state("firing"))
        assert got == [e for e in EVENTS if e["state"] == "firing"]

    def test_in_window_is_inclusive(self, history):
        seed(history)
        got = strip_ids(history.in_window(2_000, 4_000))
        assert got == EVENTS[1:4]

    def test_last_returns_tail_oldest_first(self, history):
        seed(history)
        assert strip_ids(history.last(2)) == EVENTS[-2:]
        assert strip_ids(history.last(100)) == EVENTS

    def test_count_and_clear(self, history):
        seed(history)
        assert history.count() == len(EVENTS)
        history.clear()
        assert history.count() == 0
        assert history.all() == []
        assert history.for_rule("burst") == [] and history.last(3) == []
        # ids keep counting after a clear
        assert history.append(EVENTS[0]) == len(EVENTS)


class TestSQLiteDurability:
    def test_history_survives_reopen(self, tmp_path):
        path = str(tmp_path / "alerts.db")
        database = SQLiteDatabase(path)
        history = AlertHistory(database=database)
        seed(history)
        database.close()

        reopened_db = SQLiteDatabase(path)
        try:
            reopened = AlertHistory(database=reopened_db)
            assert strip_ids(reopened.all()) == EVENTS
            assert reopened.count() == len(EVENTS)
        finally:
            reopened_db.close()
