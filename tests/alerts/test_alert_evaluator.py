"""AlertEvaluator lifecycle semantics, proved against a brute-force oracle.

The evaluator computes windowed counts through the anomaly store's time
index and walks a state machine with pending/cooldown/dedup gates.  The
oracle here recomputes every tick by brute force over the raw documents
and replays the documented lifecycle independently — any divergence is
a windowing, filtering, or state bug.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.alerts import (
    FIRING,
    OK,
    PENDING,
    RESOLVED,
    AlertEvaluator,
    AlertRule,
    CollectingSink,
)
from repro.alerts.rules import compare
from repro.obs import MetricsRegistry, NullRegistry
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
    if rule.source is not None and d["source"] != rule.source:
        return False
    if rule.anomaly_type is not None and d["type"] != rule.anomaly_type:
        return False
    if rule.min_severity is not None and d["severity"] < rule.min_severity:
        return False
    return True


def oracle_run(rule, docs, ticks):
    """Replay the documented lifecycle with brute-force counting."""
    state, streak, last_resolved = OK, 0, None
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
            streak += 1
            if state == FIRING:
                continue
            if state in (OK, RESOLVED):
                state = PENDING
            if streak < rule.pending_ticks:
                continue
            if (
                rule.cooldown_millis
                and last_resolved is not None
                and now - last_resolved < rule.cooldown_millis
            ):
                continue  # suppressed: holds in PENDING
            state = FIRING
            events.append((FIRING, now, float(count)))
        else:
            streak = 0
            if state == FIRING:
                state = RESOLVED
                last_resolved = now
                events.append((RESOLVED, now, float(count)))
            elif state in (PENDING, RESOLVED):
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
    source=st.sampled_from([None, "app"]),
    anomaly_type=st.sampled_from([None, "missing_end"]),
    min_severity=st.sampled_from([None, 2]),
    pending_ticks=st.integers(min_value=1, max_value=3),
    cooldown_millis=st.sampled_from([0, 1_000, 4_000]),
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
        assert evaluator.state_of("prop") == want_state
        # Every emitted event reached both the history and the sink.
        assert len(sink.events) == len(got)
        assert evaluator.history.count() == len(got)


class TestLifecycle:
    def test_ok_pending_firing_resolved_ok(self):
        rule = AlertRule(
            name="r", condition=">=", threshold=1,
            window_millis=1_000, pending_ticks=2,
        )
        evaluator = evaluator_for(rule, [doc(5_000)])
        assert evaluator.evaluate(5_000) == []  # first breach: PENDING
        assert evaluator.state_of("r") == PENDING
        events = evaluator.evaluate(5_100)  # second breach: FIRING
        assert [e.state for e in events] == [FIRING]
        assert evaluator.firing() == ["r"]
        assert evaluator.evaluate(5_200) == []  # ongoing: one per episode
        events = evaluator.evaluate(9_000)  # window slid past: RESOLVED
        assert [e.state for e in events] == [RESOLVED]
        assert evaluator.evaluate(9_100) == []  # quiet: back to OK
        assert evaluator.state_of("r") == OK

    def test_cooldown_suppresses_then_releases(self):
        rule = AlertRule(
            name="r", condition=">=", threshold=1,
            window_millis=2_000, cooldown_millis=5_000,
        )
        docs = [doc(1_000), doc(6_000), doc(9_500)]
        evaluator = evaluator_for(rule, docs)
        assert [e.state for e in evaluator.evaluate(1_000)] == [FIRING]
        assert [e.state for e in evaluator.evaluate(4_000)] == [RESOLVED]
        # Breach again inside the cooldown: suppressed, held in PENDING.
        assert evaluator.evaluate(6_000) == []
        assert evaluator.state_of("r") == PENDING
        assert evaluator.suppressed_total == 1
        # A breach after the cooldown expires (9500 - 4000 >= 5000): fires.
        assert [e.state for e in evaluator.evaluate(9_500)] == [FIRING]

    def test_dedup_key_blocks_concurrent_fire(self):
        shared = dict(
            condition=">=", threshold=1, window_millis=60_000,
            dedup_key="pager",
        )
        rules = [
            AlertRule(name="a", **shared),
            AlertRule(name="b", **shared),
        ]
        evaluator = evaluator_for(rules, [doc(1_000)])
        events = evaluator.evaluate(1_000)
        # Rule order decides who wins the shared key.
        assert [(e.rule, e.state) for e in events] == [("a", FIRING)]
        assert evaluator.state_of("b") == PENDING
        assert evaluator.suppressed_total == 1

    def test_none_now_skips_anomaly_rules(self):
        rule = AlertRule(name="r", condition=">=", threshold=0)
        evaluator = evaluator_for(rule, [doc(1_000)])
        assert evaluator.evaluate(None) == []
        assert evaluator.state_of("r") == OK

    def test_stale_fires_when_source_goes_quiet(self):
        rule = AlertRule(
            name="quiet", condition="stale", window_millis=2_000,
            source="db",
        )
        evaluator = evaluator_for(rule, [doc(1_000, source="db")])
        assert evaluator.evaluate(2_000) == []  # db active in window
        events = evaluator.evaluate(6_000)  # window slid past the doc
        assert [e.state for e in events] == [FIRING]

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="dup"):
            evaluator_for([AlertRule(name="dup"), AlertRule(name="dup")])


class TestMetricSignals:
    def test_counter_summed_across_series(self):
        registry = MetricsRegistry()
        registry.counter("errs", source="a").inc(3)
        registry.counter("errs", source="b").inc(4)
        rule = AlertRule(
            name="m", signal="metric:errs", condition=">", threshold=6,
        )
        evaluator = AlertEvaluator([rule], metrics=registry)
        events = evaluator.evaluate(None)  # metric rules need no log time
        assert [e.state for e in events] == [FIRING]
        assert events[0].value == 7.0
        assert events[0].timestamp_millis == 0

    def test_label_subset_filter(self):
        registry = MetricsRegistry()
        registry.counter("errs", source="a").inc(3)
        registry.counter("errs", source="b").inc(4)
        rule = AlertRule(
            name="m", signal="metric:errs", condition=">", threshold=3,
            metric_labels={"source": "b"},
        )
        evaluator = AlertEvaluator([rule], metrics=registry)
        events = evaluator.evaluate(None)
        assert events[0].value == 4.0

    def test_histogram_mean_recomputed_from_summed_totals(self):
        registry = MetricsRegistry()
        registry.histogram("lat", w="1").observe(1.0)
        registry.histogram("lat", w="2").observe(3.0)
        rule = AlertRule(
            name="m", signal="metric:lat:mean", condition=">=",
            threshold=2.0,
        )
        evaluator = AlertEvaluator([rule], metrics=registry)
        events = evaluator.evaluate(None)
        assert events[0].value == 2.0  # (1+3)/2 across both series

    def test_absent_fires_until_series_appears(self):
        registry = MetricsRegistry()
        rule = AlertRule(
            name="m", signal="metric:missing", condition="absent",
        )
        evaluator = AlertEvaluator([rule], metrics=registry)
        assert [e.state for e in evaluator.evaluate(None)] == [FIRING]
        registry.counter("missing").inc()
        assert [e.state for e in evaluator.evaluate(None)] == [RESOLVED]


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
