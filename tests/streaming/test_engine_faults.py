"""Engine-level fault tolerance: retries, quarantine, injected faults."""

import pytest

from repro.errors import QuarantinedRecordError
from repro.faults import FaultInjected, FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.streaming import RetryPolicy, StreamRecord, StreamingContext


def records(n):
    return [StreamRecord(value=i, key=str(i)) for i in range(n)]


def make_ctx(**kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return StreamingContext(num_partitions=2, **kwargs)


class TestTransientFailuresHealed:
    def test_fail_twice_then_succeed_loses_nothing(self):
        """The acceptance scenario: two transient failures, zero loss."""
        plan = FaultPlan().fail_first("operator:map:*", 2)
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(max_attempts=3),
            fault_plan=plan,
        )
        out = ctx.source().map(lambda r, w: r).collector().view()
        ctx.run_batch(records(5))
        assert sorted(r.value for r in out) == [0, 1, 2, 3, 4]
        assert ctx.retries_total == 2
        assert ctx.quarantined_total == 0

    def test_retry_counters_flow_to_registry_and_batch_metrics(self):
        registry = MetricsRegistry()
        plan = FaultPlan().fail_first("operator:map:*", 2)
        ctx = make_ctx(
            metrics=registry,
            retry_policy=RetryPolicy.no_wait(max_attempts=3),
            fault_plan=plan,
        )
        ctx.source().map(lambda r, w: r).collector().view()
        batch = ctx.run_batch(records(3))
        assert batch.retries == 2
        assert batch.quarantined == 0
        assert ctx.metrics.retries == 2
        assert registry.counter("engine.retries_total").value == 2

    def test_backoff_waits_on_the_injected_clock(self):
        clock = ManualClock()
        plan = FaultPlan(clock=clock).fail_first("operator:map:*", 2)
        ctx = make_ctx(
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_seconds=0.1,
                backoff_multiplier=2.0, clock=clock,
            ),
            fault_plan=plan,
        )
        out = ctx.source().map(lambda r, w: r).collector().view()
        ctx.run_batch(records(1))
        assert len(out) == 1
        assert clock.sleeps == [pytest.approx(0.1), pytest.approx(0.2)]


class TestQuarantine:
    def test_poison_record_is_quarantined_with_metadata(self):
        plan = FaultPlan().poison(
            "operator:map:*", lambda r: r.value == "bad"
        )
        captured = []
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(max_attempts=3),
            dead_letter=captured.append,
            fault_plan=plan,
        )
        out = ctx.source().map(lambda r, w: r).collector().view()
        batch = ctx.run_batch([
            StreamRecord(value="ok-1", key="a"),
            StreamRecord(value="bad", key="b", source="app"),
            StreamRecord(value="ok-2", key="c"),
        ])
        assert sorted(r.value for r in out) == ["ok-1", "ok-2"]
        assert batch.quarantined == 1
        assert ctx.quarantined_total == 1
        (q,) = captured
        assert q.record.value == "bad"
        assert q.record.source == "app"
        assert q.attempts == 3  # the full retry budget was spent
        assert q.error_type == "FaultInjected"
        assert q.kind == "map"

    def test_dead_letter_sink_receives_quarantined_records(self):
        seen = []
        plan = FaultPlan().poison("operator:map:*", lambda r: True)
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(max_attempts=2),
            dead_letter=seen.append,
            fault_plan=plan,
        )
        ctx.source().map(lambda r, w: r).collector().view()
        ctx.run_batch(records(2))
        assert len(seen) == 2
        assert all(q.attempts == 2 for q in seen)

    def test_dead_letter_without_policy_quarantines_immediately(self):
        """A sink alone enables quarantine with zero retries."""
        seen = []
        ctx = make_ctx(dead_letter=seen.append)

        def explode(record, worker):
            raise RuntimeError("always fails")

        ctx.source().map(explode).collector().view()
        ctx.run_batch(records(1))
        assert ctx.retries_total == 0
        assert len(seen) == 1
        assert seen[0].error_type == "RuntimeError"

    def test_on_exhaust_raise_propagates_from_run_batch(self):
        """No ``dead_letter`` sink: the exhausted record fails the batch."""
        plan = FaultPlan().poison("operator:map:*", lambda r: True)
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(max_attempts=2),
            fault_plan=plan,
        )
        ctx.source().map(lambda r, w: r).collector().view()
        with pytest.raises(QuarantinedRecordError) as exc:
            ctx.run_batch(records(1))
        assert exc.value.attempts == 2
        assert exc.value.kind == "map"

    def test_quarantined_subtree_skipped_but_siblings_run(self):
        """Only the failing branch loses the record; the healthy sibling
        branch of the same source still processes it."""
        plan = FaultPlan().poison(
            "operator:map:1", lambda r: r.value == 1
        )
        captured = []
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(max_attempts=1),
            dead_letter=captured.append,
            fault_plan=plan,
        )
        src = ctx.source()
        failing = src.map(lambda r, w: r).collector().view()   # node id 1
        healthy = src.map(lambda r, w: r).collector().view()
        ctx.run_batch(records(3))
        assert sorted(r.value for r in failing) == [0, 2]
        assert sorted(r.value for r in healthy) == [0, 1, 2]
        assert ctx.quarantined_total == 1
        assert [q.record.value for q in captured] == [1]


class TestStatefulAndBroadcastUnderFaults:
    def test_state_survives_healed_failures(self):
        plan = FaultPlan().fail_first("operator:map_with_state:*", 2)
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(max_attempts=3),
            fault_plan=plan,
        )

        def count(record, state, worker):
            state.put(record.key, state.get(record.key, 0) + 1)
            yield record

        stream = ctx.source().map_with_state(count)
        out = stream.collector().view()
        ctx.run_batch([StreamRecord(value=i, key="k") for i in range(4)])
        assert len(out) == 4
        assert ctx.retries_total == 2
        # The fault fires *before* the operator body runs, so the healed
        # retries did not double-count state updates.
        merged = {}
        for worker in ctx.workers:
            merged.update(dict(worker.state_for(stream._node.node_id).items()))
        assert merged == {"k": 4}

    def test_flaky_broadcast_fetch_healed_by_retry(self):
        plan = FaultPlan().flaky_broadcast_fetch(1)
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(max_attempts=3),
            fault_plan=plan,
        )
        bv = ctx.broadcast({"version": 1})

        def read_model(record, worker):
            model = bv.get_value(worker.block_manager)
            return StreamRecord(value=model["version"], key=record.key)

        out = ctx.source().map(read_model).collector().view()
        ctx.run_batch(records(3))
        assert [r.value for r in out] == [1, 1, 1]
        assert ctx.retries_total == 1
        assert ctx.quarantined_total == 0

    def test_rebroadcast_applies_under_flaky_fetches(self):
        plan = FaultPlan().fail_nth("broadcast.pull", 1, 3)
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(max_attempts=3),
            fault_plan=plan,
        )
        bv = ctx.broadcast({"version": 1})

        def read_model(record, worker):
            model = bv.get_value(worker.block_manager)
            return StreamRecord(value=model["version"], key=record.key)

        out = ctx.source().map(read_model).collector().view()
        ctx.run_batch(records(2))
        ctx.rebroadcast(bv, {"version": 2})
        ctx.run_batch(records(2))
        # Every record saw the model of its own batch despite two
        # injected fetch failures (one per batch, both healed).
        assert sorted(r.value for r in out) == [1, 1, 2, 2]
        assert ctx.retries_total == 2


class TestTimeouts:
    def test_slow_attempt_times_out_and_retry_succeeds(self):
        clock = ManualClock()
        plan = FaultPlan(clock=clock).slow_first(
            "operator:map:*", 1, seconds=10.0
        )
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(
                max_attempts=2, per_attempt_timeout_seconds=1.0,
                clock=clock,
            ),
            fault_plan=plan,
        )
        out = ctx.source().map(lambda r, w: r).collector().view()
        ctx.run_batch(records(1))
        assert len(out) == 1
        assert ctx.retries_total == 1
        assert clock.sleeps == []  # no wall-clock waiting anywhere

    def test_persistently_slow_record_quarantined_as_operator_error(self):
        clock = ManualClock()
        plan = FaultPlan(clock=clock).slow_first(
            "operator:map:*", 5, seconds=10.0
        )
        captured = []
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(
                max_attempts=2, per_attempt_timeout_seconds=1.0,
                clock=clock,
            ),
            dead_letter=captured.append,
            fault_plan=plan,
        )
        ctx.source().map(lambda r, w: r).collector().view()
        ctx.run_batch(records(1))
        (q,) = captured
        assert q.error_type == "OperatorError"
        assert "per-attempt budget" in q.error


class TestLegacyFailFast:
    def test_no_policy_propagates_operator_exceptions(self):
        """Without a retry policy the engine behaves exactly as before."""
        plan = FaultPlan().fail_first("operator:map:*", 1)
        ctx = make_ctx(fault_plan=plan)
        ctx.source().map(lambda r, w: r).collector().view()
        with pytest.raises(FaultInjected):
            ctx.run_batch(records(1))

    def test_non_retryable_exceptions_propagate_immediately(self):
        ctx = make_ctx(
            retry_policy=RetryPolicy.no_wait(
                max_attempts=3, retryable=(KeyError,)
            ),
        )

        def explode(record, worker):
            raise RuntimeError("not retryable")

        ctx.source().map(explode).collector().view()
        with pytest.raises(RuntimeError):
            ctx.run_batch(records(1))
        assert ctx.retries_total == 0
