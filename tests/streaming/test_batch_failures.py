"""How a micro-batch fails, on every execution backend.

Sinks are driver callbacks: they are never retried, quarantined or
fault-injected.  When a partition fails, every other partition of the
batch still runs and is absorbed in partition order; only then does the
lowest-numbered partition's exception leave ``run_batch``.  The next
batch starts clean on both backends.  A record that exhausts the retry
policy goes to the context's ``dead_letter`` sink and the batch goes on;
without a sink it fails the batch with ``QuarantinedRecordError``.
Operators live at module level so ``spawn`` worker processes can
unpickle them by import.
"""

from functools import partial

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
    buckets = partition_records(records, ctx.num_partitions)
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

        def sink(records):
            for record in records:
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
        """No ``dead_letter`` sink: the exhausted record fails the batch."""
        registry = MetricsRegistry()
        ctx = make_ctx(
            execution,
            metrics=registry,
            retry_policy=RetryPolicy.no_wait(max_attempts=2),
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


@pytest.mark.parametrize("execution", BACKENDS)
@pytest.mark.parametrize("with_sink", [False, True])
def test_exhaustion_rule(execution, with_sink):
    """A record that exhausts the policy goes to the sink once and the
    bucket goes on; with no sink it fails the batch after exactly
    ``max_attempts`` attempts."""
    captured = []
    ctx = make_ctx(
        execution,
        retry_policy=RetryPolicy.no_wait(max_attempts=3),
        dead_letter=captured.append if with_sink else None,
    )
    out = ctx.source().map(boom_on_poison).collector()
    records, buckets = batch(ctx, "e")
    # Poison partition 0's first two records; the rest of its bucket
    # comes after them.
    victims = {buckets[0][0].key, buckets[0][1].key}
    records = [
        StreamRecord(value=POISON, key=r.key) if r.key in victims else r
        for r in records
    ]
    clean = [r.value for r in records if r.value != POISON]
    try:
        if with_sink:
            ctx.run_batch(records)
            assert sorted(r.value for r in out.clear()) == sorted(clean)
            assert sorted(q.record.key for q in captured) == sorted(victims)
            assert {q.attempts for q in captured} == {3}
            assert ctx.quarantined_total == 2
            assert ctx.retries_total == 4
        else:
            with pytest.raises(QuarantinedRecordError) as info:
                ctx.run_batch(records)
            assert info.value.attempts == 3
            assert info.value.record.key == buckets[0][0].key
            assert info.value.partition_id == 0
            assert ctx.retries_total == 2
            assert ctx.quarantined_total == 0
            # Partition 0 stopped at its first record; partition 1 ran.
            assert sorted(r.value for r in out.clear()) == sorted(
                r.value for r in buckets[1]
            )
    finally:
        ctx.shutdown()


def driver_value_on_worker(bv, worker):
    return bv.get_value(worker.block_manager)


@pytest.mark.parametrize("execution", BACKENDS)
def test_failing_batch_is_counted(execution):
    """Every partition of a failing batch ran and was absorbed, and its
    queued model update was applied, so the batch counts like any other."""
    registry = MetricsRegistry()
    ctx = make_ctx(execution, metrics=registry)
    model = ctx.broadcast("model-v1")
    out = ctx.source().map(boom_on_poison).collector()
    records, buckets = batch(ctx, "c", n=5)
    records = poison_last_of_partition_0(records, buckets)
    ctx.rebroadcast(model, "model-v2")
    try:
        with pytest.raises(RuntimeError, match="poisoned record"):
            ctx.run_batch(records)
        assert [
            ctx.call_partition(pid, partial(driver_value_on_worker, model))
            for pid in range(ctx.num_partitions)
        ] == ["model-v2", "model-v2"]
        assert len(out.clear()) == 4
        assert ctx.metrics.batches == 1
        assert ctx.metrics.model_updates == 1
        assert registry.counter("engine.records").value == 5
        assert registry.histogram("engine.batch_seconds").count == 1
        assert sum(
            registry.counter(
                "engine.partition_records", partition=str(pid)
            ).value
            for pid in range(ctx.num_partitions)
        ) == 5
    finally:
        ctx.shutdown()
