"""ProcessBackend transport: multi-megabyte frames over the pipe, and
call-ordinal budget exactness."""

import pytest

from repro.faults import FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.streaming import (
    RetryPolicy,
    StreamRecord,
    StreamingContext,
)


# ---------------------------------------------------------------------------
# Picklable operators
# ---------------------------------------------------------------------------

def double(record, worker):
    return StreamRecord(value=record.value * 2, key=record.key)


def widen(record, worker):
    """Blow each record up twentyfold on the way back to the driver."""
    return StreamRecord(value=record.value * 20, key=record.key)


def workload(n=24):
    return [StreamRecord(value=i, key=str(i)) for i in range(n)]


def run_stateless(execution, records):
    ctx = StreamingContext(
        num_partitions=3, metrics=MetricsRegistry(), execution=execution
    )
    out = ctx.source().map(double).collector()
    ctx.run_batch(records)
    ctx.run_batch(records)
    result = [r.value for r in out.snapshot()]
    ctx.shutdown()
    return result


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

class TestTransport:
    def test_shm_matches_serial(self):
        records = workload()
        assert run_stateless("processes", records) == run_stateless(
            "serial", records
        )


def big_inbound_bucket():
    big = "x" * 4096
    return [StreamRecord(value=big + str(i), key=str(i)) for i in range(600)]


def big_emissions():
    return [  # distinct values, so no column collapses to one value
        StreamRecord(value=str(i) + "y" * 512, key=str(i))
        for i in range(300)
    ]


def one_big_value():
    return [StreamRecord(value="z" * (2 << 20), key="k")]


def run_large(execution, op, records):
    ctx = StreamingContext(
        num_partitions=2, metrics=MetricsRegistry(), execution=execution
    )
    out = ctx.source().map(op).collector()
    ctx.run_batch(records)
    ctx.run_batch(records)
    result = [(r.key, r.value) for r in out.snapshot()]
    ctx.shutdown()
    return result


class TestLargeFrames:
    @pytest.mark.parametrize(
        "op, make_records",
        [
            (double, big_inbound_bucket),  # ~2.4 MB bucket out
            (widen, big_emissions),  # ~3 MB of emissions back
            (double, one_big_value),  # one 2 MB value
        ],
        ids=["inbound_bucket", "outbound_emissions", "single_value"],
    )
    def test_processes_match_serial(self, op, make_records):
        records = make_records()
        processes = run_large("processes", op, records)
        assert processes == run_large("serial", op, records)
        assert len(processes) == 2 * len(records)


# ---------------------------------------------------------------------------
# Cross-partition call-ordinal budgets (the PR 8 caveat, removed)
# ---------------------------------------------------------------------------

def run_faulted(execution, plan_factory, n=20):
    """Distinct keys: matching records deliberately span partitions."""
    clock = ManualClock()
    plan = plan_factory(clock)
    captured = []
    ctx = StreamingContext(
        num_partitions=3,
        metrics=MetricsRegistry(),
        execution=execution,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_seconds=0.25, clock=clock
        ),
        dead_letter=captured.append,
        fault_plan=plan,
    )
    out = ctx.source().map(double).collector()
    ctx.run_batch([StreamRecord(value=i, key=str(i)) for i in range(n)])
    result = (
        [r.value for r in out.snapshot()],
        ctx.retries_total,
        ctx.quarantined_total,
        [
            (q.record.value, q.attempts, q.error_type)
            for q in captured
        ],
        clock.total_slept,
        plan.injected_total(),
        plan.snapshot(),
    )
    ctx.shutdown()
    return result


class TestCrossPartitionBudgets:
    def test_fail_first_exact_across_partitions(self):
        def plan(clock):
            return FaultPlan(clock=clock).fail_first("operator:map:*", 2)

        serial = run_faulted("serial", plan)
        processes = run_faulted("processes", plan)
        assert serial == processes
        assert serial[1] == 2  # exactly two retries, not up-to-one-per-worker

    def test_fail_nth_exact_across_partitions(self):
        def plan(clock):
            return FaultPlan(clock=clock).fail_nth(
                "operator:map:*", 3, 7, 15
            )

        assert run_faulted("serial", plan) == run_faulted("processes", plan)

    def test_slow_first_exact_across_partitions(self):
        def plan(clock):
            return FaultPlan(clock=clock).slow_first(
                "operator:map:*", 4, seconds=2.0
            )

        serial = run_faulted("serial", plan)
        processes = run_faulted("processes", plan)
        assert serial == processes

    def test_budget_spent_restores_parallel_fanout(self):
        clock = ManualClock()
        plan = FaultPlan(clock=clock).fail_first("operator:map:*", 2)
        ctx = StreamingContext(
            num_partitions=2,
            metrics=MetricsRegistry(),
            execution="processes",
            retry_policy=RetryPolicy.no_wait(max_attempts=3, clock=clock),
            fault_plan=plan,
        )
        ctx.source().map(double).collector()
        assert plan.has_live_call_budget()
        ctx.run_batch(workload(8))
        assert not plan.has_live_call_budget()  # batch 2 fans out in parallel
        ctx.run_batch(workload(8))
        ctx.shutdown()


class TestHasLiveCallBudget:
    def test_empty_plan_has_none(self):
        assert not FaultPlan().has_live_call_budget()

    def test_poison_rules_never_need_sequencing(self):
        plan = FaultPlan().poison("operator:map:*", lambda r: True)
        assert not plan.has_live_call_budget()

    def test_fail_first_live_until_seen(self):
        plan = FaultPlan().fail_first("site", 2)
        assert plan.has_live_call_budget()
        with pytest.raises(Exception):
            plan.invoke("site", lambda: None)
        assert plan.has_live_call_budget()
        with pytest.raises(Exception):
            plan.invoke("site", lambda: None)
        assert not plan.has_live_call_budget()

    def test_fail_nth_live_until_last_ordinal(self):
        plan = FaultPlan().fail_nth("site", 3)
        for _ in range(2):
            plan.invoke("site", lambda: None)
        assert plan.has_live_call_budget()
        with pytest.raises(Exception):
            plan.invoke("site", lambda: None)
        assert not plan.has_live_call_budget()
