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

from dataclasses import replace
from functools import partial

import pytest

from repro.errors import ExecutionError, QuarantinedRecordError
from repro.faults import FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.sequence.model import SequenceModel
from repro.service.config import ServiceConfig
from repro.service.loglens_service import LogLensService
from repro.service.model_manager import SEQUENCE_MODEL
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


def make_ctx(execution, max_attempts, dead_letter=None):
    return StreamingContext(
        num_partitions=1,
        metrics=MetricsRegistry(),
        retry_policy=RetryPolicy(
            max_attempts=max_attempts,
            base_delay_seconds=0.01,
            clock=ManualClock(),
        ),
        dead_letter=dead_letter,
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
    ctx = make_ctx(execution, max_attempts=2)
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
        assert ctx.quarantined_total == 0
    finally:
        ctx.shutdown()


@pytest.mark.parametrize("execution", BACKENDS)
def test_raising_sink_keeps_upstream_quarantines_of_later_records(
    execution,
):
    """source -> quarantine_v3 -> sink raising on v1."""
    captured = []
    ctx = make_ctx(execution, max_attempts=1, dead_letter=captured.append)
    delivered = []

    def sink(records):
        for record in records:
            if record.value == "v1":
                raise ValueError("sink failed on v1")
            delivered.append(record.value)

    ctx.source().map(quarantine_v3).sink(sink)
    try:
        run_failing(ctx, ValueError)
        assert delivered == ["v0"]
        # v3 comes after the failing sink call, yet the operator above
        # the sink already ran it: its quarantine is kept.
        assert [q.record.value for q in captured] == ["v3"]
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
    captured = []
    ctx = make_ctx(execution, max_attempts=2, dead_letter=captured.append)
    out = ctx.source().flat_map(FlakyBind()).collector()
    try:
        ctx.run_batch([StreamRecord(v, key="k") for v in VALUES[:3]])
        # v0's two attempts each bind and fail: v0 is quarantined.  v1
        # binds again and succeeds; v2 reuses that bind.
        assert [q.record.value for q in captured] == ["v0"]
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


# ----------------------------------------------------------------------
# Sinks take the bucket: the same calls on both backends
# ----------------------------------------------------------------------
def fail_on_boom(record, worker):
    if record.value == "boom":
        raise StageFailure("operator failed on boom")
    return record


def twice(record, worker):
    return [record, StreamRecord(record.value + "'", key=record.key)]


def sink_calls_of(execution):
    """Run a branching graph with two sinks over three partitions:

    source -> fail_on_boom -> [first sink, twice -> second sink]

    Batch 1 makes partition 0's operator raise on ``boom`` and the first
    sink raise part-way through partition 1's bucket; batch 2 is clean.
    Returns each sink call as ``(sink, bucket values)``, in call order,
    plus what each batch raised.
    """
    ctx = StreamingContext(
        num_partitions=3, metrics=MetricsRegistry(), execution=execution
    )
    calls = []

    def first(records):
        values = [r.value for r in records]
        calls.append(("first", values))
        for value in values:
            if value == "sink-fail":
                raise ValueError("first sink failed part-way")

    def second(records):
        calls.append(("second", [r.value for r in records]))

    checked = ctx.source().map(fail_on_boom)
    checked.sink(first)
    checked.flat_map(twice).sink(second)
    keys = ["k%d" % i for i in range(12)]
    buckets = partition_records(
        [StreamRecord(k, key=k) for k in keys], ctx.num_partitions
    )
    assert all(len(bucket) >= 3 for bucket in buckets)
    # Partition 0's second record is the operator failure; partition 1's
    # second record makes the first sink raise.
    failures = {bucket[1].key: value
                for bucket, value in zip(buckets, ["boom", "sink-fail"])}

    def batch(tag, special):
        return [
            StreamRecord(special.get(k, "%s-%s" % (tag, k)), key=k)
            for k in keys
        ]

    raised = []
    try:
        for records in (batch("b1", failures), batch("b2", {})):
            try:
                ctx.run_batch(records)
                raised.append(None)
            except Exception as exc:  # noqa: BLE001 - compared below
                raised.append((type(exc).__name__, str(exc)))
    finally:
        ctx.shutdown()
    return calls, raised


def test_sink_calls_are_identical_across_backends():
    serial_calls, serial_raised = sink_calls_of("serial")
    assert sink_calls_of("processes") == (serial_calls, serial_raised)
    # The lowest-numbered failing partition's exception leaves the batch;
    # the next batch is clean.
    assert serial_raised == [
        ("StageFailure", "operator failed on boom"), None,
    ]
    sinks = [sink for sink, _ in serial_calls]
    # Batch 1: partition 0 hands both sinks the record before boom;
    # partition 1's first sink gets its whole bucket and raises, so its
    # second sink is never called; partition 2 runs clean.  Batch 2:
    # every partition calls both sinks.
    assert sinks == ["first", "second", "first",
                     "first", "second"] + ["first", "second"] * 3
    assert len(serial_calls[0][1]) == 1
    assert len(serial_calls[1][1]) == 2
    assert "sink-fail" in serial_calls[2][1]
    assert serial_calls[2][1].index("sink-fail") < len(serial_calls[2][1]) - 1


# ----------------------------------------------------------------------
# The stage hop routes by the live sequence model
# ----------------------------------------------------------------------
def flow_lines(eid, minute):
    return [
        "2016/05/09 10:%02d:01 gate OPEN flow %s from 10.0.0.9"
        % (minute, eid),
        "2016/05/09 10:%02d:03 relay forwarding flow %s bytes %d"
        % (minute, eid, 5_000_000 + minute),
        "2016/05/09 10:%02d:09 gate CLOSE flow %s status done"
        % (minute, eid),
    ]


@pytest.mark.parametrize("execution", BACKENDS)
def test_publish_rekeys_the_next_steps_parsed_records(execution):
    service = LogLensService(config=ServiceConfig(
        num_partitions=2, metrics=MetricsRegistry(), execution=execution,
    ))
    keys_per_step = []
    run_sequence_batch = service.seq_ctx.run_batch

    def spy(records):
        keys = [r.key for r in records if not r.is_heartbeat]
        if keys:
            keys_per_step.append(keys)
        return run_sequence_batch(records)

    try:
        service.train(
            [line for i in range(12) for line in flow_lines("fl-%d" % i, i)]
        )
        service.seq_ctx.run_batch = spy
        service.ingest(flow_lines("fl-a", 30), source="app")
        service.step()
        # Re-key the open and forward patterns by their third field; the
        # close pattern gets no id field.
        model = service._sequence_bv.get_value()
        rekeyed = SequenceModel(
            [
                replace(a, id_fields={
                    pid: "P%dF3" % pid for pid in a.id_fields if pid != 3
                })
                for a in model.automata
            ],
            version=model.version + 1,
        )
        service.model_controller.update(SEQUENCE_MODEL, rekeyed.to_dict())
        service.flush_model_updates()
        service.ingest(flow_lines("fl-b", 31), source="app")
        service.step()
    finally:
        service.close()
    assert keys_per_step == [
        ["fl-a", "fl-a", "fl-a"],
        ["10.0.0.9", "5000031", None],
    ]
