"""AlertEvaluator lifecycle semantics, proved against a brute-force oracle.

The evaluator computes windowed counts through the anomaly store's time
index and walks the OK → FIRING → RESOLVED → OK state machine.  The
oracle here recomputes every tick by brute force over the raw documents
and replays the documented lifecycle independently — any divergence is
a windowing, filtering, or state bug.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.alerts import (
    FIRING,
    OK,
    RESOLVED,
    AlertEvaluator,
    AlertRule,
    CollectingSink,
)
from repro.alerts.rules import compare
from repro.obs import NullRegistry
from repro.service.sqlite_store import SQLiteDatabase
from repro.service.storage import AnomalyStorage


def storage_with(docs):
    storage = AnomalyStorage(metrics=NullRegistry())
    for doc in docs:
        storage.store(dict(doc))
    return storage


def evaluator_for(rule_or_rules, docs=(), **kwargs):
    rules = (
        rule_or_rules
        if isinstance(rule_or_rules, (list, tuple))
        else [rule_or_rules]
    )
    kwargs.setdefault("metrics", NullRegistry())
    kwargs.setdefault("anomaly_storage", storage_with(docs))
    return AlertEvaluator(rules, **kwargs)


def state_of(evaluator, name):
    return evaluator.report_section()["states"][name]


def doc(ts, source="app", type_="missing_end", severity=3):
    return {
        "type": type_,
        "severity": severity,
        "source": source,
        "timestamp_millis": ts,
        "reason": "test",
    }


# ----------------------------------------------------------------------
# The brute-force oracle
# ----------------------------------------------------------------------
def _matches(rule, d):
    return rule.anomaly_type is None or d["type"] == rule.anomaly_type


def oracle_run(rule, docs, ticks):
    """Replay the documented lifecycle with brute-force counting."""
    state = OK
    events = []
    for now in ticks:
        count = sum(
            1 for d in docs
            if _matches(rule, d)
            and now - rule.window_millis <= d["timestamp_millis"] <= now
        )
        if rule.condition == "stale":
            breached = count == 0
        else:
            breached = compare(float(count), rule.condition, rule.threshold)
        if breached:
            if state == FIRING:
                continue
            state = FIRING
            events.append((FIRING, now, float(count)))
        elif state == FIRING:
            state = RESOLVED
            events.append((RESOLVED, now, float(count)))
        else:
            state = OK
    return state, events


_DOCS = st.lists(
    st.builds(
        doc,
        ts=st.integers(min_value=0, max_value=20_000),
        source=st.sampled_from(["app", "db"]),
        type_=st.sampled_from(["missing_end", "unparsed_log"]),
        severity=st.integers(min_value=0, max_value=4),
    ),
    max_size=40,
)

_RULES = st.builds(
    AlertRule,
    name=st.just("prop"),
    condition=st.sampled_from([">", ">=", "<", "<=", "==", "stale"]),
    threshold=st.integers(min_value=0, max_value=5).map(float),
    window_millis=st.integers(min_value=500, max_value=8_000),
    anomaly_type=st.sampled_from([None, "missing_end"]),
)

_TICKS = st.lists(
    st.integers(min_value=0, max_value=25_000),
    min_size=1, max_size=30,
).map(sorted)


class TestOracleEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(docs=_DOCS, rule=_RULES, ticks=_TICKS)
    def test_windowed_lifecycle_matches_brute_force(
        self, docs, rule, ticks
    ):
        sink = CollectingSink()
        evaluator = evaluator_for(rule, docs, sinks=(sink,))
        got = []
        for now in ticks:
            for event in evaluator.evaluate(now):
                got.append(
                    (event.state, event.timestamp_millis, event.value)
                )
        want_state, want_events = oracle_run(rule, docs, ticks)
        assert got == want_events
        assert state_of(evaluator, "prop") == want_state
        # Every emitted event reached both the history and the sink.
        assert len(sink.events) == len(got)
        assert evaluator.history.count() == len(got)

    @settings(max_examples=120, deadline=None)
    @given(docs=_DOCS, rule=_RULES, ticks=_TICKS)
    def test_windowed_lifecycle_matches_brute_force_on_sqlite(
        self, docs, rule, ticks
    ):
        with tempfile.TemporaryDirectory() as tmp:
            db = SQLiteDatabase(Path(tmp) / "anomalies.db")
            try:
                storage = AnomalyStorage(metrics=NullRegistry(), database=db)
                storage.store_many(docs)
                evaluator = evaluator_for(rule, anomaly_storage=storage)
                got = [
                    (event.state, event.timestamp_millis, event.value)
                    for now in ticks
                    for event in evaluator.evaluate(now)
                ]
            finally:
                db.close()
        assert (state_of(evaluator, "prop"), got) == oracle_run(
            rule, docs, ticks
        )


class _CountOnlyStorage(AnomalyStorage):
    """An anomaly store that refuses to hand its documents back."""

    def in_window(self, start_millis, end_millis):
        raise AssertionError("a rule counts its window; it reads no doc")


class TestLifecycle:
    def test_ok_firing_resolved_ok(self):
        rule = AlertRule(
            name="r", condition=">=", threshold=1, window_millis=1_000,
        )
        evaluator = evaluator_for(rule, [doc(5_000)])
        assert evaluator.evaluate(4_000) == []  # nothing in window: OK
        assert state_of(evaluator, "r") == OK
        events = evaluator.evaluate(5_000)  # first breach: FIRING
        assert [e.state for e in events] == [FIRING]
        assert evaluator.firing() == ["r"]
        assert evaluator.evaluate(5_200) == []  # ongoing: one per episode
        events = evaluator.evaluate(9_000)  # window slid past: RESOLVED
        assert [e.state for e in events] == [RESOLVED]
        assert evaluator.evaluate(9_100) == []  # quiet: back to OK
        assert state_of(evaluator, "r") == OK

    def test_walk_reads_no_document(self):
        rules = [
            AlertRule(name=name, condition=">=", threshold=1,
                      window_millis=1_000, anomaly_type=anomaly_type)
            for name, anomaly_type in [("any", None),
                                       ("typed", "missing_end")]
        ]
        storage = _CountOnlyStorage(metrics=NullRegistry())
        storage.store(doc(5_000))
        evaluator = evaluator_for(rules, anomaly_storage=storage)
        walk = []
        for now in (4_000, 5_000, 9_000, 9_100):
            evaluator.evaluate(now)
            walk.append([state_of(evaluator, r.name) for r in rules])
        assert walk == [[OK] * 2, [FIRING] * 2, [RESOLVED] * 2, [OK] * 2]

    def test_none_now_skips_anomaly_rules(self):
        rule = AlertRule(name="r", condition=">=", threshold=0)
        evaluator = evaluator_for(rule, [doc(1_000)])
        assert evaluator.evaluate(None) == []
        assert state_of(evaluator, "r") == OK

    def test_stale_fires_when_source_goes_quiet(self):
        rule = AlertRule(
            name="quiet", condition="stale", window_millis=2_000,
        )
        evaluator = evaluator_for(rule, [doc(1_000, source="db")])
        assert evaluator.evaluate(2_000) == []  # db active in window
        events = evaluator.evaluate(6_000)  # window slid past the doc
        assert [e.state for e in events] == [FIRING]

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="dup"):
            evaluator_for([AlertRule(name="dup"), AlertRule(name="dup")])


class TestReportSection:
    def test_section_reflects_lifecycle(self):
        rule = AlertRule(name="r", condition=">=", threshold=1,
                         window_millis=1_000)
        sink = CollectingSink()
        evaluator = evaluator_for(rule, [doc(1_000)], sinks=(sink,))
        evaluator.evaluate(1_000)
        section = evaluator.report_section()
        assert section["rules"] == 1
        assert section["firing"] == ["r"]
        assert section["states"] == {"r": FIRING}
        assert section["fired"] == 1
        assert section["delivered"] == 1
        assert section["history"] == 1
        assert section["sinks"] == ["collect"]
        assert section["last_evaluated_millis"] == 1_000

    def test_test_fire_unknown_rule_names_the_known_ones(self):
        evaluator = evaluator_for(AlertRule(name="real"))
        with pytest.raises(KeyError, match="real"):
            evaluator.test_fire("nope")
