"""Cross-backend equivalence: serial and processes.

The execution backend is a pure scheduling concern — every observable
output of a micro-batch (emissions and their order, quarantine contents,
counters, injected-clock time, fault-plan accounting) must be identical
across backends.  All operator functions live at module level so ``spawn`` worker processes
can unpickle them by import.
"""

import inspect
import multiprocessing
import os
import random
import signal

import pytest

from repro.errors import ExecutionError, QuarantinedRecordError
from repro.faults import FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.streaming import (
    EXECUTION_BACKENDS,
    ProcessBackend,
    RetryPolicy,
    StreamRecord,
    StreamingContext,
)

BACKENDS = list(EXECUTION_BACKENDS)


# ---------------------------------------------------------------------------
# Picklable operators (module level: spawn workers import them).
# ---------------------------------------------------------------------------

def double(record, worker):
    return StreamRecord(value=record.value * 2, key=record.key)


def explode(record, worker):
    return [
        record,
        StreamRecord(value=record.value + 1, key=record.key),
    ]


def is_even(record):
    return record.value % 2 == 0


def count_by_key(record, state, worker):
    n = state.get(record.key, 0) + 1
    state.put(record.key, n)
    yield StreamRecord(value=(record.key, n), key=record.key)


def always_boom(record, worker):
    raise RuntimeError("boom")


def poison_seven(record):
    return getattr(record, "value", None) == 7


def state_items(worker):
    """call_partition probe: every node's state as a plain dict."""
    out = {}
    for node_id, state in worker._states.items():
        out[node_id] = dict(state.items())
    return out


def _refuse_unpickling():
    raise RuntimeError("this value does not unpickle")


class DriverRefuses:
    """Pickles in a worker; unpickling it, which only the driver does,
    raises."""

    def __reduce__(self):
        return (_refuse_unpickling, ())


def double_or_refuse(record, worker):
    if record.value == "refuse":
        return StreamRecord(value=DriverRefuses(), key=record.key)
    return StreamRecord(value=record.value * 2, key=record.key)


class ReadVersion:
    """Broadcast-reading map operator (picklable: carries only the bv)."""

    def __init__(self, bv):
        self.bv = bv

    def __call__(self, record, worker):
        value = self.bv.get_value(worker.block_manager)
        return StreamRecord(value=value["v"], key=record.key)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def workload(n=60, keys=8, seed=11):
    rng = random.Random(seed)
    return [
        StreamRecord(value=rng.randrange(100), key="k%d" % rng.randrange(keys))
        for _ in range(n)
    ]


def run_stateless(execution, records, batches=2):
    ctx = StreamingContext(
        num_partitions=3, metrics=MetricsRegistry(), execution=execution
    )
    out = (
        ctx.source().map(double).flat_map(explode).filter(is_even).collector()
    )
    for _ in range(batches):
        ctx.run_batch(records)
    result = (
        [r.value for r in out.snapshot()],
        ctx.metrics.batches,
        ctx.obs.counter("engine.records").value,
        ctx.retries_total,
        ctx.quarantined_total,
    )
    ctx.shutdown()
    return result


class TestStatelessEquivalence:
    def test_processes_match_serial_exactly(self):
        records = workload()
        assert run_stateless("serial", records) == run_stateless(
            "processes", records
        )


class TestStatefulEquivalence:
    @staticmethod
    def run(execution, records):
        ctx = StreamingContext(
            num_partitions=3, metrics=MetricsRegistry(), execution=execution
        )
        out = ctx.source().map_with_state(count_by_key).collector()
        ctx.run_batch(records)
        ctx.run_batch(records)
        counts = sorted(r.value for r in out.snapshot())
        per_partition = [
            ctx.call_partition(pid, state_items)
            for pid in range(ctx.num_partitions)
        ]
        ctx.shutdown()
        return counts, per_partition

    def test_state_accumulates_identically(self):
        records = workload(n=40, keys=5)
        serial = self.run("serial", records)
        processes = self.run("processes", records)
        assert serial == processes
        # State actually lives worker-side and is resident: every key
        # was seen twice per occurrence (two batches).
        merged = {}
        for snapshot in processes[1]:
            for state in snapshot.values():
                merged.update(state)
        occurrences = {}
        for r in records:
            occurrences[r.key] = occurrences.get(r.key, 0) + 2
        assert merged == occurrences


class TestBroadcastDeltas:
    @staticmethod
    def run(execution):
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution=execution
        )
        bv = ctx.broadcast({"v": 1})
        out = ctx.source().map(ReadVersion(bv)).collector()
        records = workload(n=10, keys=4)
        ctx.run_batch(records)
        ctx.rebroadcast(bv, {"v": 2})
        ctx.run_batch(records)
        values = [r.value for r in out.snapshot()]
        ctx.shutdown()
        return values

    def test_rebroadcast_reaches_worker_processes(self):
        assert self.run("serial") == self.run("processes")

    def test_empty_batch_still_syncs_deltas(self):
        """``run_batch([])`` must push pending rebroadcasts to workers —
        the service's flush_model_updates/restore path depends on it."""
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        bv = ctx.broadcast({"v": 1})
        out = ctx.source().map(ReadVersion(bv)).collector()
        ctx.run_batch(workload(n=4))  # starts workers at v=1
        ctx.rebroadcast(bv, {"v": 9})
        ctx.run_batch([])
        out.clear()
        ctx.run_batch(workload(n=4))
        assert [r.value for r in out.snapshot()] == [9, 9, 9, 9]
        ctx.shutdown()


class TestFaultEquivalence:
    @staticmethod
    def run(execution, plan_factory, key=None):
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
        records = [
            StreamRecord(value=i, key=key or str(i)) for i in range(20)
        ]
        ctx.run_batch(records)
        result = (
            [r.value for r in out.snapshot()],
            ctx.retries_total,
            ctx.quarantined_total,
            [
                (q.record.value, q.attempts, q.error_type, q.kind)
                for q in captured
            ],
            clock.total_slept,
            plan.injected_total(),
        )
        ctx.shutdown()
        return result

    def test_poison_rule_equivalent_across_partitions(self):
        """Predicate rules fire per record — exact on any backend."""
        def plan(clock):
            return FaultPlan(clock=clock).poison(
                "operator:map:*", poison_seven
            )

        assert self.run("serial", plan) == self.run("processes", plan)

    def test_fail_first_budget_exact_when_single_partition(self):
        """Call-ordinal budgets are exact when the matching records all
        land on one partition (the cross-partition caveat is documented
        in docs/PARALLELISM.md)."""
        def plan(clock):
            return FaultPlan(clock=clock).fail_first("operator:map:*", 2)

        serial = self.run("serial", plan, key="same")
        processes = self.run("processes", plan, key="same")
        assert serial == processes
        assert serial[1] == 2  # both retried exactly twice
        assert serial[4] == pytest.approx(0.25 + 0.5)  # backoff ladder

    def test_on_exhaust_raise_propagates_with_metadata(self):
        """No ``dead_letter`` sink: the exhausted record's error crosses
        the pipe with its metadata."""
        clock = ManualClock()
        plan = FaultPlan(clock=clock).poison("operator:map:*", poison_seven)
        ctx = StreamingContext(
            num_partitions=2,
            metrics=MetricsRegistry(),
            execution="processes",
            retry_policy=RetryPolicy.no_wait(max_attempts=2),
            fault_plan=plan,
        )
        ctx.source().map(double).collector()
        with pytest.raises(QuarantinedRecordError) as exc:
            ctx.run_batch([StreamRecord(value=7, key="k")])
        assert exc.value.attempts == 2
        assert exc.value.kind == "map"
        assert exc.value.record.value == 7
        ctx.shutdown()

    def test_plain_operator_exception_propagates(self):
        """No policy: the worker's exception crosses the pipe intact."""
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        ctx.source().map(always_boom).collector()
        with pytest.raises(RuntimeError, match="boom"):
            ctx.run_batch(workload(n=3))
        ctx.shutdown()


class TestLifecycle:
    def test_shutdown_is_idempotent(self):
        for execution in BACKENDS:
            ctx = StreamingContext(
                num_partitions=2,
                metrics=MetricsRegistry(),
                execution=execution,
            )
            ctx.source().map(double).collector()
            ctx.run_batch(workload(n=4))
            ctx.shutdown()
            ctx.shutdown()  # second call is a no-op, not an error

    def test_process_backend_rejects_use_after_shutdown(self):
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        ctx.source().map(double).collector()
        ctx.run_batch(workload(n=4))
        ctx.shutdown()
        with pytest.raises(ExecutionError):
            ctx.run_batch(workload(n=4))

    def test_worker_processes_exit_on_shutdown(self):
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        ctx.source().map(double).collector()
        ctx.run_batch(workload(n=4))
        backend = ctx._backend
        assert backend.started
        procs = list(backend._procs)
        assert all(p.is_alive() for p in procs)
        ctx.shutdown()
        for p in procs:
            p.join(timeout=5)
        assert not any(p.is_alive() for p in procs)

    def test_call_partition_range_checked(self):
        ctx = StreamingContext(num_partitions=2, metrics=MetricsRegistry())
        with pytest.raises(ValueError):
            ctx.call_partition(2, state_items)
        ctx.shutdown()

    @pytest.mark.parametrize("name", ["hamsters", "threads"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(ValueError, match="'serial', 'processes'"):
            StreamingContext(
                num_partitions=2,
                metrics=MetricsRegistry(),
                execution=name,
            )

    def test_removed_options_are_plain_type_errors(self):
        with pytest.raises(TypeError, match="parallel"):
            StreamingContext(num_partitions=2, parallel=True)
        with pytest.raises(TypeError, match="transport"):
            ProcessBackend(transport="shm")
        assert list(inspect.signature(ProcessBackend).parameters) == []


class TestStartAndReplyFailures:
    def test_undecodable_reply_keeps_the_pipes_in_step(self):
        """Emissions the driver cannot decode fail that partition only:
        every reply is still read, so the next batch reads its own."""
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        out = ctx.source().map(double_or_refuse).collector()
        # Key "d" routes to partition 0 and "a" to partition 1.
        with pytest.raises(RuntimeError, match="does not unpickle"):
            ctx.run_batch([
                StreamRecord(value="refuse", key="d"),
                StreamRecord(value=5, key="a"),
            ])
        assert [r.value for r in out.clear()] == [10]
        ctx.run_batch([
            StreamRecord(value=10, key="d"),
            StreamRecord(value=20, key="a"),
        ])
        assert [r.value for r in out.snapshot()] == [20, 40]
        ctx.shutdown()

    def test_failed_start_tears_the_pool_down(self):
        before = set(multiprocessing.active_children())
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        ctx.source().map(lambda record, worker: record).collector()
        with pytest.raises(ExecutionError, match="could not ship 'init'"):
            ctx.run_batch(workload(n=4))
        assert set(multiprocessing.active_children()) <= before
        with pytest.raises(ExecutionError):
            ctx.run_batch(workload(n=4))
        with pytest.raises(ExecutionError):
            ctx.call_partition(0, state_items)
        ctx.shutdown()


class TestBackendCleanup:
    def test_clean_shutdown_unlinks_all_arenas(self):
        """A clean shutdown leaves no worker process running."""
        ctx = StreamingContext(
            num_partitions=2, metrics=MetricsRegistry(), execution="processes"
        )
        out = ctx.source().map(double).collector()
        ctx.run_batch([StreamRecord(value=i, key=str(i)) for i in range(8)])
        assert len(out.snapshot()) == 8
        procs = list(ctx._backend._procs)
        assert len(procs) == 2
        assert all(p.is_alive() for p in procs)
        ctx.shutdown()
        assert not any(p.is_alive() for p in procs)

    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs POSIX job control"
    )
    def test_terminate_fallback_unlinks_and_counts(self):
        """A worker that cannot honour "stop" is terminated, and the
        terminate fallback is visible via the obs counter."""
        registry = MetricsRegistry()
        ctx = StreamingContext(
            num_partitions=2, metrics=registry, execution="processes"
        )
        ctx.source().map(double).collector()
        ctx.run_batch([StreamRecord(value=1, key="k")])
        procs = list(ctx._backend._procs)
        # SIGSTOP one worker: it can neither honour "stop" nor exit, so
        # shutdown's join times out and the terminate fallback fires.
        victim = procs[0]
        real_join = victim.join
        os.kill(victim.pid, signal.SIGSTOP)
        try:
            victim.join = lambda timeout=None: None  # skip the 5s waits
            ctx.shutdown()
        finally:
            try:
                os.kill(victim.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        real_join(timeout=5)
        assert not any(p.is_alive() for p in procs)
        assert (
            registry.counter("execution.worker_terminated").value == 1
        )
