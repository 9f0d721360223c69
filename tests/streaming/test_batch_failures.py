"""How a micro-batch fails, on every execution backend.

Sinks are driver callbacks: they are never retried, quarantined or
fault-injected.  When a partition fails, every other partition of the
batch still runs and is absorbed in partition order; only then does the
lowest-numbered partition's exception leave ``run_batch``.  The next
batch starts clean on both backends.  Operators live at module level so
``spawn`` worker processes can unpickle them by import.
"""

import pytest

from repro.errors import QuarantinedRecordError
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.streaming import (
    EXECUTION_BACKENDS,
    RetryPolicy,
    StreamRecord,
    StreamingContext,
)
from repro.streaming.partitioner import partition_records

BACKENDS = list(EXECUTION_BACKENDS)
POISON = "poison"


def identity(record, worker):
    return record


def boom_on_poison(record, worker):
    if record.value == POISON:
        raise RuntimeError("poisoned record")
    return record


def is_poison(record):
    return getattr(record, "value", None) == POISON


def make_ctx(execution, **kwargs):
    return StreamingContext(
        num_partitions=2,
        metrics=kwargs.pop("metrics", None) or MetricsRegistry(),
        execution=execution,
        **kwargs,
    )


def batch(ctx, tag, n=12):
    """``n`` distinctly keyed records plus their per-partition order."""
    records = [
        StreamRecord(value="%s-%d" % (tag, i), key="%s-k%d" % (tag, i))
        for i in range(n)
    ]
    buckets = partition_records(records, ctx.partitioner)
    assert all(buckets), "both partitions need records"
    return records, buckets


def poison_last_of_partition_0(records, buckets):
    """Replace partition 0's last record with the poison (same key)."""
    victim = buckets[0][-1]
    poisoned = StreamRecord(value=POISON, key=victim.key)
    return [poisoned if r is victim else r for r in records]


@pytest.mark.parametrize("execution", BACKENDS)
class TestRaisingSink:
    def test_sink_runs_once_and_is_never_retried(self, execution):
        plan = FaultPlan().fail_first("operator:sink:*", 1)
        ctx = make_ctx(
            execution,
            retry_policy=RetryPolicy.no_wait(max_attempts=3),
            fault_plan=plan,
        )
        calls = []

        def sink(record):
            calls.append(record.value)
            if record.value == failing:
                raise ValueError("sink failed")

        ctx.source().map(identity).sink(sink)
        records, buckets = batch(ctx, "a")
        failing = buckets[0][0].value
        try:
            with pytest.raises(ValueError, match="sink failed"):
                ctx.run_batch(records)
            # Partition 0 stops at the failing sink; partition 1 still
            # ran and was absorbed before the exception left run_batch.
            assert calls == [failing] + [r.value for r in buckets[1]]
            assert ctx.retries_total == 0
            assert ctx.quarantined_total == 0
            assert len(ctx.quarantine) == 0
            assert plan.injected_total() == 0
            assert not [
                site for site in plan.snapshot()["sites"]
                if site.startswith("operator:sink")
            ]
        finally:
            ctx.shutdown()


@pytest.mark.parametrize("execution", BACKENDS)
class TestFailingBatch:
    @staticmethod
    def run(ctx, out):
        records, buckets = batch(ctx, "b1")
        records = poison_last_of_partition_0(records, buckets)
        expected = [r.value for r in records if r.value != POISON]
        raised = None
        try:
            ctx.run_batch(records)
        except Exception as exc:  # noqa: BLE001 - asserted below
            raised = exc
        delivered = sorted(r.value for r in out.clear())
        assert delivered == sorted(expected)
        # The next batch delivers exactly its own records: no reply of
        # the failed batch is left unread in a worker pipe.
        records, _ = batch(ctx, "b2")
        ctx.run_batch(records)
        assert sorted(r.value for r in out.clear()) == sorted(
            r.value for r in records
        )
        return raised

    def test_on_exhaust_raise(self, execution):
        registry = MetricsRegistry()
        ctx = make_ctx(
            execution,
            metrics=registry,
            retry_policy=RetryPolicy.no_wait(
                max_attempts=2, on_exhaust="raise"
            ),
            fault_plan=FaultPlan().poison("operator:map:*", is_poison),
        )
        out = ctx.source().map(identity).collector()
        try:
            raised = self.run(ctx, out)
            assert isinstance(raised, QuarantinedRecordError)
            assert raised.record.value == POISON
            assert raised.partition_id == 0
            # One count per fact: the raising batch's retry is counted
            # by the context, its metrics and the registry alike.
            assert ctx.retries_total == 1
            assert ctx.metrics.retries == 1
            assert registry.counter("engine.retries_total").value == 1
            assert ctx.quarantined_total == 0
        finally:
            ctx.shutdown()

    def test_no_policy_raises_the_operator_exception(self, execution):
        ctx = make_ctx(execution)
        out = ctx.source().map(boom_on_poison).collector()
        try:
            raised = self.run(ctx, out)
            assert isinstance(raised, RuntimeError)
            assert str(raised) == "poisoned record"
            assert ctx.retries_total == ctx.metrics.retries == 0
        finally:
            ctx.shutdown()
