"""The bucket walk: each operator node runs over its whole bucket.

``PartitionExecutor`` binds an operator once per node and bucket (inside
the first record's call, so a failing bind is retried like it), runs
every record of the bucket through it, and only then hands the outputs
to the node's children.  So when a node fails part-way, its upstream
nodes have already run the whole bucket (their state, retries and
quarantines are kept), its children get the outputs of the records
before the failure, and the sibling branches after it get nothing.
These tests pin that rule on both execution backends.

Operators live at module level so ``spawn`` worker processes can
unpickle them by import.
"""

from functools import partial

import pytest

from repro.errors import ExecutionError, QuarantinedRecordError
from repro.faults import FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.streaming import (
    EXECUTION_BACKENDS,
    RetryPolicy,
    StreamRecord,
    StreamingContext,
)
from repro.streaming.partitioner import partition_records

BACKENDS = list(EXECUTION_BACKENDS)
VALUES = ["v0", "v1", "v2", "v3", "v4"]


class StageFailure(RuntimeError):
    """What the test operators raise."""


class Tally:
    """map_with_state: counts the records it saw; fails ``v4`` once."""

    def __call__(self, record, state, worker):
        return self.bind(state, worker)(record)

    def bind(self, state, worker):
        def call(record):
            if record.value == "v4" and not state.get("v4-failed"):
                state.put("v4-failed", True)
                raise StageFailure("transient failure on v4")
            state.put("seen", state.get("seen", 0) + 1)
            return [record]

        return call


def fail_on_v1(record, worker):
    if record.value == "v1":
        raise StageFailure("permanent failure on v1")
    return record


def quarantine_v3(record, worker):
    if record.value == "v3":
        raise StageFailure("permanent failure on v3")
    return record


def state_value(node_id, key, worker):
    return worker.state_for(node_id).get(key)


def make_ctx(execution, max_attempts, on_exhaust):
    return StreamingContext(
        num_partitions=1,
        metrics=MetricsRegistry(),
        retry_policy=RetryPolicy(
            max_attempts=max_attempts,
            base_delay_seconds=0.01,
            on_exhaust=on_exhaust,
            clock=ManualClock(),
        ),
        execution=execution,
    )


def run_failing(ctx, exc_type):
    records = [StreamRecord(v, key="k") for v in VALUES]
    with pytest.raises(exc_type) as raised:
        ctx.run_batch(records)
    return raised.value


@pytest.mark.parametrize("execution", BACKENDS)
def test_failing_node_after_upstream_and_before_a_sibling(execution):
    """source -> Tally -> [fail_on_v1 -> collector, collector]."""
    ctx = make_ctx(execution, max_attempts=2, on_exhaust="raise")
    tallied = ctx.source().map_with_state(Tally())
    failing_branch = tallied.map(fail_on_v1).collector()
    sibling_branch = tallied.collector()
    try:
        raised = run_failing(ctx, QuarantinedRecordError)
        assert raised.record.value == "v1"
        assert raised.attempts == 2
        # The upstream node ran the whole bucket before v1 failed
        # downstream: all five records counted, v4's retry kept.
        node_id = tallied._node.node_id
        assert ctx.call_partition(
            0, partial(state_value, node_id, "seen")
        ) == len(VALUES)
        # v4's retry upstream, then v1's retry at the failing node.
        assert ctx.retries_total == 2
        assert ctx.metrics.retries == 2
        # The failing node's children got the records before v1; the
        # sibling branch after it got nothing.
        assert [r.value for r in failing_branch.clear()] == ["v0"]
        assert sibling_branch.clear() == []
        assert len(ctx.quarantine) == 0
    finally:
        ctx.shutdown()


@pytest.mark.parametrize("execution", BACKENDS)
def test_raising_sink_keeps_upstream_quarantines_of_later_records(
    execution,
):
    """source -> quarantine_v3 -> sink raising on v1."""
    ctx = make_ctx(execution, max_attempts=1, on_exhaust="quarantine")
    delivered = []

    def sink(record):
        if record.value == "v1":
            raise ValueError("sink failed on v1")
        delivered.append(record.value)

    ctx.source().map(quarantine_v3).sink(sink)
    try:
        run_failing(ctx, ValueError)
        assert delivered == ["v0"]
        # v3 comes after the failing sink call, yet the operator above
        # the sink already ran it: its quarantine is kept.
        assert [q.record.value for q in ctx.quarantine.snapshot()] == ["v3"]
        assert ctx.quarantined_total == 1
    finally:
        ctx.shutdown()


# ----------------------------------------------------------------------
# One bind per node and bucket
# ----------------------------------------------------------------------
class CountingFanout:
    """flat_map that counts its binds on the worker."""

    def __call__(self, record, worker):
        return self.bind(worker)(record)

    def bind(self, worker):
        worker.test_binds = getattr(worker, "test_binds", 0) + 1
        return lambda record: [record, record]


def bind_count(worker):
    return getattr(worker, "test_binds", 0)


@pytest.mark.parametrize("execution", BACKENDS)
@pytest.mark.parametrize("armed", [False, True])
def test_operator_is_bound_once_per_bucket(execution, armed):
    ctx = StreamingContext(
        num_partitions=2,
        metrics=MetricsRegistry(),
        retry_policy=RetryPolicy.no_wait(max_attempts=2),
        fault_plan=FaultPlan() if armed else None,
        execution=execution,
    )
    out = ctx.source().flat_map(CountingFanout()).collector()
    try:
        for batch in range(3):
            records = [
                StreamRecord((batch, i), key="key-%d" % i) for i in range(8)
            ]
            assert all(partition_records(records, ctx.num_partitions))
            ctx.run_batch(records)
        assert len(out.clear()) == 3 * 8 * 2
        assert [
            ctx.call_partition(pid, bind_count) for pid in range(2)
        ] == [3, 3]
    finally:
        ctx.shutdown()


class FlakyBind:
    """flat_map whose first two binds on a worker fail."""

    def __call__(self, record, worker):
        return self.bind(worker)(record)

    def bind(self, worker):
        worker.test_binds = getattr(worker, "test_binds", 0) + 1
        if worker.test_binds <= 2:
            raise StageFailure("bind %d failed" % worker.test_binds)
        return lambda record: [record]


@pytest.mark.parametrize("execution", BACKENDS)
def test_failing_bind_is_retried_as_part_of_a_record_call(execution):
    ctx = make_ctx(execution, max_attempts=2, on_exhaust="quarantine")
    out = ctx.source().flat_map(FlakyBind()).collector()
    try:
        ctx.run_batch([StreamRecord(v, key="k") for v in VALUES[:3]])
        # v0's two attempts each bind and fail: v0 is quarantined.  v1
        # binds again and succeeds; v2 reuses that bind.
        assert [q.record.value for q in ctx.quarantine.snapshot()] == ["v0"]
        assert ctx.retries_total == 1
        assert [r.value for r in out.clear()] == ["v1", "v2"]
        assert ctx.call_partition(0, bind_count) == 3
    finally:
        ctx.shutdown()


# ----------------------------------------------------------------------
# An exception the process backend cannot pickle
# ----------------------------------------------------------------------
class HoldsLambda(Exception):
    """An exception whose state cannot cross a process boundary."""

    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


def raise_unpicklable(record, worker):
    if record.value == "boom":
        raise HoldsLambda("walk failed at boom")
    return record


@pytest.mark.parametrize("execution", BACKENDS)
def test_unpicklable_walk_exception_keeps_partial_outcome(execution):
    ctx = StreamingContext(
        num_partitions=1, metrics=MetricsRegistry(), execution=execution
    )
    out = ctx.source().map(raise_unpicklable).collector()
    values = ["v0", "v1", "boom", "v3"]
    try:
        with pytest.raises(Exception) as raised:
            ctx.run_batch([StreamRecord(v, key="k") for v in values])
        # The records before the failing one are delivered either way.
        assert [r.value for r in out.clear()] == ["v0", "v1"]
        if execution == "serial":
            assert isinstance(raised.value, HoldsLambda)
        else:
            assert isinstance(raised.value, ExecutionError)
            assert "HoldsLambda: walk failed at boom" in str(raised.value)
        # The next batch is clean.
        ctx.run_batch([StreamRecord("v4", key="k")])
        assert [r.value for r in out.clear()] == ["v4"]
    finally:
        ctx.shutdown()
