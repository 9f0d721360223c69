"""The fault-free bucket loop against the per-record path (the oracle).

With no fault plan and no per-attempt timeout, ``PartitionExecutor``
runs a bucket's first record through ``_invoke`` (it binds) and the
rest in one plain loop; a record that raises drops the walk back to
``_invoke``, its failed call counted as attempt 1.  An empty
``FaultPlan()`` arms no rule but forces every record through
``_invoke``, so the same graph run with ``fault_plan=FaultPlan()`` and
with ``None`` must agree on everything observable: sink calls, retries,
backoffs, quarantine entries and the errors ``run_batch`` raises.

Operators live at module level so ``spawn`` worker processes can
unpickle them by import.
"""

from functools import partial

import pytest

from repro.faults import FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.streaming import (
    EXECUTION_BACKENDS,
    RetryPolicy,
    StreamRecord,
    StreamingContext,
)
from repro.streaming.execution import PartitionExecutor
from repro.streaming.partitioner import partition_records

BACKENDS = list(EXECUTION_BACKENDS)
NUM_PARTITIONS = 2


class Transient(RuntimeError):
    """Retryable under the test policies."""


class Fatal(ValueError):
    """Not retryable under the test policies."""


def _kind(record):
    return record.value.rsplit(":", 1)[1]


class Check:
    """map: raises by the record's kind — ``once`` on its first call
    only, ``always`` on every call, ``fatal`` non-retryably."""

    def __init__(self):
        self.failed = set()

    def __call__(self, record, worker):
        kind = _kind(record)
        if kind == "fatal":
            raise Fatal("fatal record %s" % record.value)
        if kind == "always":
            raise Transient("always failing %s" % record.value)
        if kind == "once" and record.value not in self.failed:
            self.failed.add(record.value)
            raise Transient("first call of %s" % record.value)
        return record


class Fan:
    """flat_map with a bind: two outputs per record."""

    def __call__(self, record, worker):
        return self.bind(worker)(record)

    def bind(self, worker):
        def call(record):
            return [
                StreamRecord(record.value + "/a", key=record.key),
                StreamRecord(record.value + "/b", key=record.key),
            ]

        return call


class Count:
    """map_with_state with a bind: counts records; a ``late`` record
    fails once here, downstream of a node that ran the whole bucket."""

    def __call__(self, record, state, worker):
        return self.bind(state, worker)(record)

    def bind(self, state, worker):
        def call(record):
            if _kind(record) == "late" and not state.get(record.value):
                state.put(record.value, True)
                raise Transient("late failure of %s" % record.value)
            state.put("seen", state.get("seen", 0) + 1)
            return [StreamRecord(
                "%s#%d" % (record.value, state.get("seen")), key=record.key
            )]

        return call


def keep_first_half(record):
    return int(record.value.split(":")[1]) % 2 == 0


def _keys_by_partition():
    keys = {}
    for i in range(64):
        key = "key-%d" % i
        (partition,) = [
            p for p, bucket in enumerate(partition_records(
                [StreamRecord(None, key=key)], NUM_PARTITIONS
            )) if bucket
        ]
        keys.setdefault(partition, key)
    assert len(keys) == NUM_PARTITIONS
    return [keys[p] for p in range(NUM_PARTITIONS)]


KEYS = _keys_by_partition()

#: Batches as (partition, kind) lists: failures on a bucket's first
#: record, in mid-bucket, several in one bucket, and downstream.
SCENARIOS = [
    ("clean", [(0, "ok"), (1, "ok"), (0, "ok"), (1, "ok")]),
    ("first-once", [(0, "once"), (0, "ok"), (0, "ok"), (1, "ok")]),
    ("first-always", [(0, "always"), (0, "ok"), (1, "ok"), (0, "ok")]),
    ("first-fatal", [(1, "ok"), (0, "fatal"), (0, "ok"), (0, "ok")]),
    ("mid-once", [(0, "ok"), (0, "ok"), (0, "once"), (0, "ok"), (1, "ok")]),
    ("mid-always", [(0, "ok"), (1, "ok"), (0, "always"), (0, "ok")]),
    ("mid-fatal", [(0, "ok"), (0, "ok"), (0, "fatal"), (1, "ok")]),
    ("mixed", [
        (0, "ok"), (0, "once"), (0, "ok"), (0, "always"), (0, "ok"),
        (1, "ok"), (1, "once"), (1, "ok"),
    ]),
    ("late", [(0, "ok"), (0, "late"), (0, "ok"), (1, "late"), (1, "ok")]),
    ("after", [(0, "ok"), (1, "ok")]),
]

#: ``(max_attempts, with a dead_letter sink)``; ``None`` is no policy.
POLICIES = [
    None,
    (1, True),
    (1, False),
    (3, True),
    (3, False),
]


def _batch(name, entries):
    return [
        StreamRecord("%s:%d:%s" % (name, i, kind), key=KEYS[partition])
        for i, (partition, kind) in enumerate(entries)
    ]


def _record_sink(calls, name, records):
    calls.append((name, [record.value for record in records]))


def run_graph(execution, policy_args, fault_plan, count_invokes=False):
    """Every scenario through source -> Check -> [Fan, Count, filter],
    each branch into a sink; returns everything observable."""
    clock = ManualClock()
    policy = None
    captured = []
    dead_letter = None
    if policy_args is not None:
        max_attempts, with_sink = policy_args
        policy = RetryPolicy(
            max_attempts=max_attempts,
            base_delay_seconds=0.01,
            retryable=(Transient,),
            clock=clock,
        )
        if with_sink:
            dead_letter = captured.append
    ctx = StreamingContext(
        num_partitions=NUM_PARTITIONS,
        metrics=MetricsRegistry(),
        retry_policy=policy,
        dead_letter=dead_letter,
        fault_plan=fault_plan,
        execution=execution,
    )
    calls = []
    checked = ctx.source().map(Check())
    checked.flat_map(Fan()).sink(partial(_record_sink, calls, "fan"))
    checked.map_with_state(Count()).sink(
        partial(_record_sink, calls, "count")
    )
    checked.filter(keep_first_half).sink(
        partial(_record_sink, calls, "half")
    )
    invokes = []
    if count_invokes:
        invoke = ctx._executor._invoke

        def counting(*args):
            invokes.append(args[2].value)
            return invoke(*args)

        ctx._executor._invoke = counting
    observed = []
    try:
        for name, entries in SCENARIOS:
            del calls[:]
            try:
                metrics = ctx.run_batch(_batch(name, entries))
                outcome = ("ok", metrics.retries, metrics.quarantined)
            except Exception as exc:
                outcome = (
                    "raised",
                    type(exc).__name__,
                    str(exc),
                    getattr(getattr(exc, "record", None), "value", None),
                    getattr(exc, "attempts", None),
                )
            observed.append((name, outcome, list(calls)))
        quarantine = [
            (q.record.value, q.error, q.error_type, q.node_id, q.kind,
             q.partition_id, q.attempts)
            for q in captured
        ]
        totals = (ctx.metrics.retries, ctx.metrics.quarantined)
    finally:
        ctx.shutdown()
    return {
        "batches": observed,
        "quarantine": quarantine,
        "totals": totals,
        "backoffs": list(clock.sleeps),
        "invokes": invokes,
    }


@pytest.mark.parametrize("policy_args", POLICIES)
@pytest.mark.parametrize("execution", BACKENDS)
def test_fast_loop_matches_the_per_record_path(execution, policy_args):
    count = execution == "serial"
    fast = run_graph(execution, policy_args, None, count_invokes=count)
    oracle = run_graph(
        execution, policy_args, FaultPlan(), count_invokes=count
    )
    invokes = (fast.pop("invokes"), oracle.pop("invokes"))
    assert fast == oracle

    # The oracle is not vacuous: failures happened and were handled.
    outcomes = [outcome for _, outcome, _ in fast["batches"]]
    raised = {outcome[1] for outcome in outcomes if outcome[0] == "raised"}
    assert raised
    if policy_args is None:
        assert raised == {"Transient", "Fatal"}
    else:
        max_attempts, with_sink = policy_args
        assert "Fatal" in raised
        if with_sink:
            assert fast["quarantine"]
        else:
            assert "QuarantinedRecordError" in raised
        retries, _ = fast["totals"]
        assert (retries > 0) == (max_attempts > 1)
        assert len(fast["backoffs"]) == retries
    if count:
        # And the two runs took different paths: the per-record path
        # invokes every record, the fast loop only some.
        fast_invokes, oracle_invokes = invokes
        assert len(fast_invokes) < len(oracle_invokes)
