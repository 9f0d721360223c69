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

    def test_count_and_clear(self, history):
        # The history is append-only (AlertHistory.clear is deleted):
        # the count only grows and ids keep counting.
        assert history.count() == 0
        assert history.all() == []
        seed(history)
        assert history.count() == len(EVENTS)
        assert history.append(EVENTS[0]) == len(EVENTS)
        assert history.count() == len(EVENTS) + 1


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
