"""Fault injection at the ``alert.deliver`` site.

The delivery invariant under test: every emitted event is appended to
the history *before* any sink attempt, each sink either accepts it once
or the event is dead-lettered for that sink after the retry budget —
no alert lost, no double-delivery.  Runs in the CI chaos job (10
consecutive repeats); every schedule here is deterministic.
"""

import pytest

from repro.alerts import (
    ALERTS_TOPIC,
    AlertEvaluator,
    AlertRule,
    CollectingSink,
)
from repro.faults import FaultInjected, FaultPlan, ManualClock
from repro.obs import NullRegistry
from repro.service.bus import MessageBus, dead_letter_topic
from repro.service.storage import AnomalyStorage
from repro.streaming.retry import RetryPolicy


def storage_with_burst(ts=1_000, n=3):
    storage = AnomalyStorage(metrics=NullRegistry())
    for i in range(n):
        storage.store({
            "type": "missing_end",
            "severity": 3,
            "source": "app",
            "timestamp_millis": ts + i,
            "reason": "burst",
        })
    return storage


RULE = AlertRule(
    name="burst", condition=">=", threshold=1, window_millis=2_000,
)


def evaluator_with(plan=None, *, sinks=None, bus=None, max_attempts=3):
    sink = CollectingSink()
    clock = ManualClock()
    evaluator = AlertEvaluator(
        [RULE],
        metrics=NullRegistry(),
        anomaly_storage=storage_with_burst(),
        sinks=tuple(sinks) if sinks is not None else (sink,),
        bus=bus,
        retry_policy=RetryPolicy.no_wait(
            max_attempts=max_attempts, clock=clock
        ),
        fault_plan=plan,
    )
    return evaluator, sink, clock


class FlakySink:
    """Raises on the first ``fail_first`` deliveries, then accepts."""

    name = "flaky"

    def __init__(self, fail_first=0):
        self.fail_first = fail_first
        self.attempts = 0
        self.accepted = []

    def deliver(self, event):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise RuntimeError("sink outage %d" % self.attempts)
        self.accepted.append(event)


class TestRetryHealing:
    def test_transient_faults_heal_within_budget(self):
        plan = FaultPlan().fail_first("alert.deliver", 2)
        evaluator, sink, _ = evaluator_with(plan, max_attempts=3)
        events = evaluator.evaluate(1_500)
        assert [e.state for e in events] == ["firing"]
        # Two injected failures, third attempt delivered — exactly once.
        assert plan.call_count("alert.deliver") == 3
        assert [e.rule for e in sink.events] == ["burst"]
        assert evaluator.delivered_total == 1
        assert evaluator.dead_lettered_total == 0
        assert evaluator.history.count() == 1

    def test_retry_backoff_runs_on_the_injected_clock(self):
        plan = FaultPlan().fail_first("alert.deliver", 2)
        sink = CollectingSink()
        clock = ManualClock()
        evaluator = AlertEvaluator(
            [RULE],
            metrics=NullRegistry(),
            anomaly_storage=storage_with_burst(),
            sinks=(sink,),
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_seconds=0.1,
                backoff_multiplier=2.0, clock=clock,
            ),
            fault_plan=plan,
        )
        evaluator.evaluate(1_500)
        # Failure 1 → sleep 0.1s, failure 2 → sleep 0.2s, then success.
        assert clock.sleeps == [
            pytest.approx(0.1), pytest.approx(0.2),
        ]
        assert len(sink.events) == 1

    def test_flaky_sink_never_sees_a_duplicate(self):
        # The failure happens inside the sink (not injected before it):
        # a retry after an accepted delivery would show up as a second
        # entry in ``accepted``.
        flaky = FlakySink(fail_first=2)
        evaluator, _, _ = evaluator_with(sinks=(flaky,), max_attempts=3)
        evaluator.evaluate(1_500)
        assert flaky.attempts == 3
        assert [e.rule for e in flaky.accepted] == ["burst"]
        assert evaluator.delivered_total == 1


class TestDeadLettering:
    def test_exhausted_retries_dead_letter_with_full_envelope(self):
        plan = FaultPlan().fail_first("alert.deliver", 99)
        bus = MessageBus(metrics=NullRegistry())
        evaluator, sink, _ = evaluator_with(
            plan, bus=bus, max_attempts=3
        )
        events = evaluator.evaluate(1_500)
        assert len(events) == 1
        assert evaluator.dead_lettered_total == 1
        assert evaluator.delivered_total == 0
        assert sink.events == []
        # But the alert is NOT lost: it is in the durable history...
        assert evaluator.history.count() == 1
        # ...and quarantined on the alerts dead-letter topic.
        assert bus.dead_letter_topics() == [ALERTS_TOPIC]
        (message,) = bus.drain_dead_letters(ALERTS_TOPIC)
        assert message.key == "burst"
        envelope = message.value
        assert envelope["origin"] == ALERTS_TOPIC
        assert envelope["error_type"] == "FaultInjected"
        assert envelope["value"]["rule"] == "burst"
        assert envelope["value"]["state"] == "firing"
        assert envelope["metadata"] == {
            "sink": "collect", "attempts": 3, "state": "firing",
        }

    def test_dead_letter_without_bus_only_counts(self):
        plan = FaultPlan().fail_first("alert.deliver", 99)
        evaluator, _, _ = evaluator_with(plan, bus=None)
        evaluator.evaluate(1_500)
        assert evaluator.dead_lettered_total == 1

    def test_one_bad_sink_does_not_starve_the_good_one(self):
        bad = FlakySink(fail_first=99)
        good = CollectingSink()
        bus = MessageBus(metrics=NullRegistry())
        evaluator, _, _ = evaluator_with(
            sinks=(bad, good), bus=bus, max_attempts=2
        )
        evaluator.evaluate(1_500)
        # Dead-lettered for the bad sink, delivered to the good one.
        assert evaluator.dead_lettered_total == 1
        assert evaluator.delivered_total == 1
        assert [e.rule for e in good.events] == ["burst"]
        (message,) = bus.drain_dead_letters(ALERTS_TOPIC)
        assert message.value["metadata"]["sink"] == "flaky"

    def test_poison_event_targets_only_matching_state(self):
        # Poison only the firing notification: the resolve still goes
        # out, so the pager clears even when the page itself could not
        # be posted.
        plan = FaultPlan().poison(
            "alert.deliver", lambda e: e.state == "firing"
        )
        evaluator, sink, _ = evaluator_with(plan, max_attempts=2)
        evaluator.evaluate(1_500)  # firing: poisoned, dead-lettered
        events = evaluator.evaluate(9_000)  # quiet window: resolves
        assert [e.state for e in events] == ["resolved"]
        assert evaluator.dead_lettered_total == 1
        assert [e.state for e in sink.events] == ["resolved"]
        assert evaluator.history.count() == 2

    def test_fault_schedule_is_observable(self):
        plan = FaultPlan().fail_first("alert.deliver", 1)
        evaluator, _, _ = evaluator_with(plan)
        evaluator.evaluate(1_500)
        snapshot = plan.snapshot()
        assert plan.injected_total() == 1
        assert snapshot["sites"]["alert.deliver"] == 2  # fail + retry


class TestTestFire:
    def test_test_fire_exercises_the_dead_letter_path(self):
        plan = FaultPlan().fail_first(
            "alert.deliver", 99, exc=lambda: FaultInjected("pager down")
        )
        bus = MessageBus(metrics=NullRegistry())
        evaluator, _, _ = evaluator_with(plan, bus=bus)
        event = evaluator.test_fire("burst")
        assert event.state == "test"
        assert evaluator.dead_lettered_total == 1
        (message,) = bus.drain_dead_letters(ALERTS_TOPIC)
        assert message.value["metadata"]["state"] == "test"
        # Lifecycle state is untouched by a synthetic test event.
        assert evaluator.report_section()["states"]["burst"] == "ok"

    def test_dead_letter_topic_name_is_derived(self):
        assert dead_letter_topic(ALERTS_TOPIC) == (
            ALERTS_TOPIC + ".deadletter"
        )
