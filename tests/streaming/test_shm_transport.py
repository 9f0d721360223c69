"""ProcessBackend shm transport: growth, fallbacks, and budget exactness."""

import pytest

from repro.faults import FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.streaming import (
    RetryPolicy,
    StreamRecord,
    StreamingContext,
)
from repro.streaming import execution as execution_module
from repro.streaming.shm import DEFAULT_ARENA_BYTES


# ---------------------------------------------------------------------------
# Picklable operators
# ---------------------------------------------------------------------------

def double(record, worker):
    return StreamRecord(value=record.value * 2, key=record.key)


def widen(record, worker):
    """Blow each record up so emissions outgrow the default out-arena."""
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


class TestGrowthAndFallback:
    def test_oversized_bucket_grows_in_arena(self):
        big = "x" * 4096
        records = [
            StreamRecord(value=big + str(i), key=str(i)) for i in range(600)
        ]  # ~2.4 MB encoded: past the 1 MB default arena
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        out = ctx.source().map(double).collector()
        ctx.run_batch(records)
        backend = ctx._backend
        assert any(
            arena.capacity > DEFAULT_ARENA_BYTES
            for arena in backend._in_arenas
        )
        assert len(out.snapshot()) == len(records)
        # The grown arena serves subsequent batches without regrowing.
        grown = [arena.name for arena in backend._in_arenas]
        out.clear()
        ctx.run_batch(records)
        assert [arena.name for arena in backend._in_arenas] == grown
        assert len(out.snapshot()) == len(records)
        ctx.shutdown()

    def test_oversized_emissions_come_back_inline_then_grow(self):
        records = [  # distinct values: the ALL_SAME column shortcut
            StreamRecord(value=str(i) + "y" * 512, key=str(i))  # must not
            for i in range(300)                                 # kick in
        ]
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        out = ctx.source().map(widen).collector()
        # Batch 1: each partition emits ~150 x 10 KB values — past the
        # default out-arena, so replies fall back inline and the driver
        # grows the out-arenas for the next batch.
        ctx.run_batch(records)
        backend = ctx._backend
        assert len(out.snapshot()) == len(records)
        assert all(
            arena.capacity > DEFAULT_ARENA_BYTES
            for arena in backend._out_arenas
        )
        out.clear()
        ctx.run_batch(records)  # batch 2 travels through the grown arenas
        assert len(out.snapshot()) == len(records)
        ctx.shutdown()

    def test_frame_past_growth_cap_ships_inline(self, monkeypatch):
        """With growth capped below the frame size, buckets travel the
        pipe — slower, never wrong."""
        monkeypatch.setattr(
            execution_module, "grown_capacity", lambda needed: 64
        )
        big = "z" * (2 << 20)
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        out = ctx.source().map(double).collector()
        ctx.run_batch([StreamRecord(value=big, key="k")])
        assert [r.value for r in out.snapshot()] == [big * 2]
        backend = ctx._backend
        assert all(
            arena.capacity == DEFAULT_ARENA_BYTES
            for arena in backend._in_arenas
        )
        ctx.shutdown()


# ---------------------------------------------------------------------------
# Cross-partition call-ordinal budgets (the PR 8 caveat, removed)
# ---------------------------------------------------------------------------

def run_faulted(execution, plan_factory, n=20):
    """Distinct keys: matching records deliberately span partitions."""
    clock = ManualClock()
    plan = plan_factory(clock)
    ctx = StreamingContext(
        num_partitions=3,
        metrics=MetricsRegistry(),
        execution=execution,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_seconds=0.25, clock=clock
        ),
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
            for q in ctx.quarantine.snapshot()
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
