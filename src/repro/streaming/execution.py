"""Pluggable execution backends for the streaming engine.

The driver/worker split that :class:`~repro.streaming.engine.StreamingContext`
schedules over is abstracted behind an :class:`ExecutionBackend`:

* :class:`SerialBackend` — partitions run inline on the driver thread
  (the default, and the reference the equivalence suites compare to);
* :class:`ProcessBackend` — each partition runs in a **long-lived worker
  process** (``multiprocessing`` spawn context).  Workers keep their
  :class:`~repro.streaming.engine.WorkerContext` / state maps resident
  across micro-batches; per batch they receive the record bucket plus
  broadcast *deltas* (only values whose version changed since the last
  sync), and return captured sink calls, quarantine entries, retry
  counters, and fault-plan/clock bookkeeping which the driver replays
  so observable semantics match serial execution.

The bulk payloads — record buckets going out, sink emissions coming
back — travel as single columnar frames (:mod:`repro.streaming.codec`),
carried as ``bytes`` inside the pipe message next to the control
metadata (deltas, fault-plan state, clock readings, counters).  While a
fault plan has a live call-ordinal budget (``fail_first``/``fail_nth``),
partitions are chained sequentially in partition order so budget
counting is *exactly* the serial schedule even across partitions; once
every budget is spent the batch fans out fully parallel again.

The operator-graph walk itself — fault injection, retry loop, quarantine
— lives in :class:`PartitionExecutor`, shared verbatim between the
driver and the worker processes.  It walks a bucket at a time: each
operator node runs over the whole bucket that reaches it before its
children see the outputs.  An operator that defines ``bind`` is bound
once per bucket.  With a fault plan or a per-attempt timeout, every
record's call runs under the retry loop; without them, only the first
record's call does (it binds), the rest of the bucket runs in one plain
loop, and a record that raises drops the walk back to the retry loop
from that record on.  The walk calls a sink function directly, once
with the whole bucket that reaches it; in a worker process each sink
is a capture function recording the bucket as ``(node_id, record)``
pairs, which the driver replays as one call per captured bucket in
partition order — exactly the sink calls of serial execution.  Each
walk returns one :class:`PartitionOutcome`, folded into the driver in
partition order; a failing partition's exception is raised after every
partition's fold.

See ``docs/PARALLELISM.md`` for the protocol and its determinism
caveats.
"""

from __future__ import annotations

import multiprocessing
import signal
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.reduction import ForkingPickler
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ExecutionError, OperatorError, QuarantinedRecordError
from ..faults.clock import ManualClock
from .codec import decode_emits, decode_records, encode_emits, encode_records
from .records import StreamRecord
from .retry import QuarantinedRecord, RetryPolicy

__all__ = [
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "PartitionExecutor",
    "PartitionOutcome",
    "ProcessBackend",
    "RemoteBatchResult",
    "SerialBackend",
    "resolve_backend",
]

#: Valid names for ``StreamingContext(execution=...)`` / the CLI flag.
EXECUTION_BACKENDS = ("serial", "processes")

#: Each partition's exception (``None`` if it succeeded), in partition order.
_Errors = List[Optional[Exception]]

#: Sentinel distinguishing "operator quarantined the record" from an
#: empty output list (which still propagates nothing but is a success).
_QUARANTINED = object()


@dataclass
class PartitionOutcome:
    """What one partition's walk over one micro-batch produced."""

    partition_id: int
    #: ``(node_id, record)`` sink emissions a worker process captured, in
    #: execution order (the serial walk calls its sinks inline); each run
    #: of one node id is one sink call, as a walk reaches a sink once.
    emitted: List[Tuple[int, StreamRecord]] = field(default_factory=list)
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    retries: int = 0
    backoffs: List[float] = field(default_factory=list)
    #: The exception that stopped the walk; everything above is what the
    #: partition produced before it.
    error: Optional[Exception] = None


class PartitionExecutor:
    """Walks the operator graph over one partition's bucket.

    This is the engine's execution core — fault injection at
    ``operator:<kind>:<node_id>`` sites, the retry loop with measured
    per-attempt timeouts, and what a record that exhausts the policy
    does: with ``quarantines`` (the context has a ``dead_letter`` sink)
    it goes to :attr:`PartitionOutcome.quarantined`, otherwise it
    raises :class:`~repro.errors.QuarantinedRecordError` — factored out of
    :class:`~repro.streaming.engine.StreamingContext` so the driver and
    worker processes run the identical code path.

    The bucket is the unit of work.  Each operator node runs over every
    record that reaches it and collects the outputs into one list, then
    hands that list to each child in turn; a sink is called once with
    that list, directly: no fault site, retry or quarantine.  A node
    that raises part-way hands its children what it produced before the
    failing record, then re-raises; its upstream nodes have already run
    the whole bucket, and its later siblings run nothing.
    :meth:`run_partition` returns the exception that stopped the walk in
    the outcome instead of raising it.

    A ``flat_map`` or ``map_with_state`` function may define
    ``bind(worker)`` (``bind(state, worker)`` for ``map_with_state``):
    called once per node and bucket, it returns the per-record function,
    which returns a list of that record's outputs.  The bind happens
    inside the first record's call, which runs under :meth:`_invoke`
    (fault site, retries, quarantine), so a bind that raises is retried
    like that call; while no bind has succeeded, each record binds
    again.

    Once bound, the rest of the bucket runs under :meth:`_invoke` too
    while a fault plan or a per-attempt timeout is set.  Otherwise it
    runs in one plain loop over the bound function: a call that returns
    needs neither a fault site nor a clock read.  When a record raises
    there, a non-retryable exception (or any, with no retry policy)
    propagates as :meth:`_invoke` would propagate it; a retryable one
    counts as that record's attempt 1, and the walk continues under
    :meth:`_invoke` from that record on, with the same retries, backoffs
    and quarantine.
    """

    def __init__(
        self,
        roots: List[Any],
        retry_policy: Optional[RetryPolicy],
        fault_plan: Optional[Any],
        quarantines: bool,
    ) -> None:
        self.roots = roots
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.quarantines = quarantines
        self._outcome: Optional[PartitionOutcome] = None

    # ------------------------------------------------------------------
    def run_partition(
        self, worker: Any, records: Sequence[StreamRecord]
    ) -> PartitionOutcome:
        outcome = self._outcome = PartitionOutcome(worker.partition_id)
        try:
            for root in self.roots:
                self._hand_down(root, records, worker)
        except Exception as exc:
            outcome.error = exc
        return outcome

    def _hand_down(
        self, node: Any, records: Sequence[StreamRecord], worker: Any
    ) -> None:
        for child in node.children:
            self._run(child, records, worker)

    def _run(
        self, node: Any, records: Sequence[StreamRecord], worker: Any
    ) -> None:
        """Run ``node`` over ``records``, then its children over the
        outputs."""
        if not records:
            return
        if node.kind == "sink":
            node.fn(records)
            return
        call = None

        def bind_and_call(record: StreamRecord) -> List[Any]:
            # Binding is part of a record's call, so a bind that raises
            # is fault-injected, retried and quarantined like the call.
            nonlocal call
            call = self._bind(node, worker)
            return call(record)

        invoke = self._invoke
        policy = self.retry_policy
        # Without a fault site or a per-attempt clock, a call that
        # returns needs no wrapper: once bound, the bucket runs in one
        # plain loop until a record raises.
        fast = self.fault_plan is None and (
            policy is None or policy.per_attempt_timeout_seconds is None
        )
        retryable = policy.retryable if policy is not None else ()
        pending = iter(records)
        outputs: List[StreamRecord] = []
        try:
            while True:
                for record in pending:
                    out = invoke(node, call or bind_and_call, record, worker)
                    if out is not _QUARANTINED:
                        outputs += out
                    if fast and call is not None:
                        break
                else:
                    return
                try:
                    for record in pending:
                        outputs += call(record)
                    return
                except retryable as exc:
                    # That call was the record's attempt 1: the record
                    # and the rest of the bucket go through _invoke.
                    fast = False
                    out = invoke(node, call, record, worker, exc)
                    if out is not _QUARANTINED:
                        outputs += out
        finally:
            # On a failure, the outputs of the records before it still
            # go down.
            self._hand_down(node, outputs, worker)

    @staticmethod
    def _bind(node: Any, worker: Any) -> Callable[[Any], List[Any]]:
        """``node``'s function bound for one bucket: record -> outputs."""
        fn = node.fn
        kind = node.kind
        bind = getattr(fn, "bind", None)
        if kind == "map":
            def call(record: StreamRecord) -> List[Any]:
                out = fn(record, worker)
                return [] if out is None else [out]
            return call
        if kind == "flat_map":
            if bind is not None:
                return bind(worker)
            return lambda record: list(fn(record, worker))
        if kind == "filter":
            return lambda record: [record] if fn(record) else []
        if kind == "map_with_state":
            state = worker.state_for(node.node_id)
            if bind is not None:
                return bind(state, worker)
            return lambda record: list(fn(record, state, worker))
        # pragma: no cover - graph construction prevents this
        raise RuntimeError("unknown operator kind %r" % kind)

    def _invoke(
        self,
        node: Any,
        call: Callable[[Any], List[Any]],
        record: StreamRecord,
        worker: Any,
        failed: Optional[BaseException] = None,
    ) -> Any:
        """One record's operator call under fault injection and retries.

        Returns the operator's outputs, or the ``_QUARANTINED`` sentinel
        when the record exhausted its retry budget (the failing node's
        subtree is skipped for it; other records proceed).  ``failed``
        is the retryable exception of an attempt 1 already made outside
        this method; the retry loop then starts at attempt 2.
        """
        plan = self.fault_plan
        policy = self.retry_policy
        if policy is None:
            # Fail fast: the exception stops the partition.
            if plan is None:
                return call(record)
            return plan.invoke(node.site, call, record, subject=record)
        clock = policy.clock
        timeout = policy.per_attempt_timeout_seconds
        attempt = 0
        if failed is not None:
            attempt = 1
            if self._attempt_failed(node, record, worker, 1, failed):
                return _QUARANTINED
        while True:
            attempt += 1
            if timeout is not None:
                # Only a per-attempt budget needs the clock read.
                attempt_started = clock.monotonic()
            try:
                if plan is not None:
                    outputs = plan.invoke(
                        node.site, call, record, subject=record
                    )
                else:
                    outputs = call(record)
                if timeout is not None:
                    attempt_seconds = clock.monotonic() - attempt_started
                    if attempt_seconds > timeout:
                        raise OperatorError(
                            "attempt %d took %.6fs, over the %.6fs "
                            "per-attempt budget"
                            % (attempt, attempt_seconds, timeout),
                            node_id=node.node_id,
                            kind=node.kind,
                            partition_id=worker.partition_id,
                            attempts=attempt,
                        )
                return outputs
            except policy.retryable as exc:
                if self._attempt_failed(node, record, worker, attempt, exc):
                    return _QUARANTINED

    def _attempt_failed(
        self,
        node: Any,
        record: StreamRecord,
        worker: Any,
        attempt: int,
        exc: BaseException,
    ) -> bool:
        """Attempt ``attempt`` raised the retryable ``exc``: back off
        before the next one, or, with the budget spent, quarantine the
        record (True) or fail the partition."""
        policy = self.retry_policy
        if attempt >= policy.max_attempts:
            self._exhausted(node, record, worker, attempt, exc)
            return True
        self._outcome.retries += 1
        delay = policy.delay_for(attempt)
        self._outcome.backoffs.append(delay)
        if delay > 0:
            policy.clock.sleep(delay)
        return False

    def _exhausted(
        self,
        node: Any,
        record: StreamRecord,
        worker: Any,
        attempts: int,
        exc: BaseException,
    ) -> None:
        """Retry budget spent: quarantine the record, or raise when
        there is no sink to quarantine it to."""
        if not self.quarantines:
            raise QuarantinedRecordError(
                "record failed %d attempt(s) at operator %s#%d: %s"
                % (attempts, node.kind, node.node_id, exc),
                record=record,
                node_id=node.node_id,
                kind=node.kind,
                partition_id=worker.partition_id,
                attempts=attempts,
            ) from exc
        self._outcome.quarantined.append(QuarantinedRecord(
            record=record,
            error=str(exc) or repr(exc),
            error_type=type(exc).__name__,
            node_id=node.node_id,
            kind=node.kind,
            partition_id=worker.partition_id,
            attempts=attempts,
        ))


# ----------------------------------------------------------------------
# Backend protocol
# ----------------------------------------------------------------------
class ExecutionBackend:
    """How a :class:`StreamingContext` executes partition work.

    A backend is attached to exactly one context (:meth:`attach`), runs
    every partition of a micro-batch (:meth:`run_batch`), services state
    RPCs against resident workers (:meth:`call`), and releases its
    resources on :meth:`shutdown` (idempotent).
    """

    name = "abstract"

    def __init__(self) -> None:
        self._ctx: Any = None
        self.closed = False

    def attach(self, ctx: Any) -> None:
        if self._ctx is not None and self._ctx is not ctx:
            raise ExecutionError(
                "execution backend %r is already attached to another "
                "streaming context" % (self.name,)
            )
        self._ctx = ctx

    def run_batch(self, buckets: List[List[StreamRecord]]) -> _Errors:
        """Run every partition and fold each outcome into the context
        (``ctx._absorb``) in partition order; return their exceptions."""
        raise NotImplementedError

    def call(self, partition_id: int, fn: Callable[[Any], Any]) -> Any:
        """Run ``fn(worker)`` against the partition's resident worker."""
        return fn(self._ctx.workers[partition_id])

    def shutdown(self) -> None:
        self.closed = True


class SerialBackend(ExecutionBackend):
    """Partitions run inline on the driver thread (the default)."""

    name = "serial"

    def run_batch(self, buckets: List[List[StreamRecord]]) -> _Errors:
        ctx = self._ctx
        run = ctx._executor.run_partition
        return [
            ctx._absorb(run(worker, bucket))
            for worker, bucket in zip(ctx.workers, buckets)
        ]


# ----------------------------------------------------------------------
# Process backend: driver side
# ----------------------------------------------------------------------
@dataclass
class _WorkerInit:
    """Everything a worker process needs, shipped once at startup.

    Pickled as one object so shared identities survive — in particular a
    :class:`~repro.faults.clock.ManualClock` shared between the retry
    policy and the fault plan stays one object on the worker side.
    """

    partition_id: int
    graph: List[Any]
    retry_policy: Optional[RetryPolicy]
    fault_plan: Optional[Any]
    quarantines: bool
    broadcast_values: Dict[int, Any]


@dataclass
class RemoteBatchResult(PartitionOutcome):
    """A worker's outcome plus the bookkeeping the driver replays."""

    #: Manual-clock sleeps performed during the batch (replayed by the
    #: driver) and clock advancement not attributable to sleeps.
    sleeps: List[float] = field(default_factory=list)
    advanced: float = 0.0
    #: Post-batch fault-plan sync state (``FaultPlan.sync_state()``).
    plan_state: Optional[Any] = None


def _graph_spec(roots: List[Any]) -> List[Any]:
    """A picklable description of the operator graph.

    Sink functions are dropped (the worker installs capture functions
    instead); every other operator function must be picklable — module-level
    functions or instances of picklable classes, not lambdas or bound
    methods of driver-resident objects.
    """

    def spec(node: Any) -> Any:
        fn = None if node.kind == "sink" else node.fn
        return (node.node_id, node.kind, fn,
                [spec(child) for child in node.children])

    return [spec(root) for root in roots]


def _capture(emitted: List[Any], node_id: int, records: Any) -> None:
    emitted.extend([(node_id, record) for record in records])


def _graph_from_spec(
    spec: List[Any], emitted: List[Tuple[int, StreamRecord]]
) -> List[Any]:
    """Rebuild the graph in a worker; sink nodes capture into ``emitted``."""
    from .engine import _Node  # deferred: engine imports this module

    def build(entry: Any) -> Any:
        node_id, kind, fn, children = entry
        if kind == "sink":
            fn = partial(_capture, emitted, node_id)
        node = _Node(node_id, kind, fn)
        node.children = [build(child) for child in children]
        return node

    return [build(entry) for entry in spec]


class ProcessBackend(ExecutionBackend):
    """One long-lived worker process per partition (spawn context).

    Workers start lazily on the first batch or state call — by then the
    operator graph is complete — and stay resident: state maps live in
    the worker, broadcast values are cached in the worker's block
    manager, and per batch only the record bucket plus broadcast deltas
    cross the pipe.

    Every operator function in the graph must be picklable under the
    spawn context, and the driving program must be importable from a
    fresh interpreter (the standard ``if __name__ == "__main__"`` guard
    applies).
    """

    name = "processes"

    def __init__(self) -> None:
        super().__init__()
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        #: Broadcast versions already synced to the workers (all workers
        #: receive identical deltas, so one map covers the fleet).
        self._synced_versions: Dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    def _ensure_started(self) -> None:
        if self.closed:
            raise ExecutionError(
                "process backend has been shut down; create a new "
                "StreamingContext to run further batches"
            )
        if self._procs:
            return
        try:
            self._start()
        except BaseException:
            # A half-started pool would serve later calls from workers
            # that never got their graph: tear it down, so every later
            # call raises ``ExecutionError`` and no worker outlives it.
            self.shutdown()
            raise

    def _start(self) -> None:
        ctx = self._ctx
        mp = multiprocessing.get_context("spawn")
        spec = _graph_spec(ctx._roots)
        snapshot = ctx.broadcast_manager.sync_snapshot()
        values = {bv_id: value for bv_id, (_, value) in snapshot.items()}
        self._synced_versions = {
            bv_id: version for bv_id, (version, _) in snapshot.items()
        }
        for partition_id in range(ctx.num_partitions):
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(
                target=_worker_main,
                args=(child_conn,),
                name="loglens-worker-%d" % partition_id,
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            init = _WorkerInit(
                partition_id=partition_id,
                graph=spec,
                retry_policy=ctx.retry_policy,
                fault_plan=ctx._fault_plan,
                quarantines=ctx._executor.quarantines,
                broadcast_values=values,
            )
            self._send(partition_id, ("init", init))
        for partition_id in range(ctx.num_partitions):
            self._recv(partition_id)  # "ready" ack (or startup error)

    def shutdown(self) -> None:
        if self.closed:
            return
        self.closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        terminated = 0
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
                terminated += 1
        if terminated and self._ctx is not None:
            # Silent worker hangs otherwise look like a slow shutdown.
            self._ctx.obs.counter("execution.worker_terminated").inc(
                terminated
            )
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []

    # -- wire helpers --------------------------------------------------
    def _send(self, partition_id: int, message: Any) -> None:
        try:
            self._conns[partition_id].send(message)
        except (OSError, ValueError) as exc:
            raise ExecutionError(
                "lost pipe to worker process for partition %d (%s)"
                % (partition_id, exc)
            ) from exc
        except Exception as exc:
            raise ExecutionError(
                "could not ship %r message to partition %d: %s (every "
                "operator function must be picklable for the process "
                "backend)" % (message[0], partition_id, exc)
            ) from exc

    def _recv(self, partition_id: int) -> Any:
        try:
            tag, payload = self._conns[partition_id].recv()
        except (EOFError, OSError) as exc:
            raise ExecutionError(
                "worker process for partition %d died mid-request"
                % partition_id
            ) from exc
        if tag == "error":
            raise payload
        return payload

    # -- execution -----------------------------------------------------
    def _broadcast_deltas(self) -> List[Tuple[int, Any]]:
        snapshot = self._ctx.broadcast_manager.sync_snapshot()
        deltas = [
            (bv_id, value)
            for bv_id, (version, value) in snapshot.items()
            if self._synced_versions.get(bv_id) != version
        ]
        self._synced_versions = {
            bv_id: version for bv_id, (version, _) in snapshot.items()
        }
        return deltas

    def _send_batch(
        self,
        partition_id: int,
        bucket: List[StreamRecord],
        deltas: List[Tuple[int, Any]],
        plan_sent: Optional[Any],
        clock_now: Optional[float],
    ) -> Optional[RemoteBatchResult]:
        """Send one batch request; a failure is returned as the
        partition's outcome, not raised."""
        try:
            self._send(
                partition_id,
                ("batch", encode_records(bucket), deltas, plan_sent,
                 clock_now),
            )
        except Exception as exc:
            return RemoteBatchResult(partition_id, error=exc)
        return None

    def _read_outcome(self, partition_id: int) -> RemoteBatchResult:
        """Read one partition's reply and decode its emissions; a dead
        worker, an error reply or emissions that fail to decode become
        the outcome's ``error``."""
        try:
            frame, result = self._recv(partition_id)
        except Exception as exc:
            return RemoteBatchResult(partition_id, error=exc)
        try:
            result.emitted = decode_emits(frame)
        except Exception as exc:
            # The reply is read, so the pipe stays in step; the rest of
            # the outcome (quarantine, retries, clock) still folds in.
            # The lost emissions outrank any error the walk returned.
            result.error = exc
        return result

    def run_batch(self, buckets: List[List[StreamRecord]]) -> _Errors:
        ctx = self._ctx
        self._ensure_started()
        deltas = self._broadcast_deltas()
        plan = ctx._fault_plan
        policy = ctx.retry_policy
        clock = policy.clock if policy is not None else None
        manual = isinstance(clock, ManualClock)
        if plan is not None and plan.has_live_call_budget():
            # A call-ordinal fault budget is live: chain the partitions
            # sequentially so every worker sees the plan counters (and
            # clock) exactly as serial execution would have left them.
            # Budget consumption is literally sequential in partition
            # order, so ordinal rules fire on the same calls as serial.
            rounds = [[partition_id] for partition_id in range(len(buckets))]
        else:
            rounds = [range(len(buckets))]
        errors = []
        for round_ids in rounds:
            plan_sent = plan.sync_state() if plan is not None else None
            clock_now = clock.monotonic() if manual else None
            unsent = [
                self._send_batch(
                    partition_id, buckets[partition_id], deltas,
                    plan_sent, clock_now,
                )
                for partition_id in round_ids
            ]
            # Read every reply before absorbing any, so no reply is left
            # behind in a pipe even if a driver callback raises.
            outcomes = [
                failed or self._read_outcome(partition_id)
                for partition_id, failed in zip(round_ids, unsent)
            ]
            for outcome in outcomes:
                # Replay the worker's clock and plan bookkeeping, so the
                # driver's read as they would after serial execution.
                if manual:
                    for seconds in outcome.sleeps:
                        clock.sleep(seconds)
                    if outcome.advanced > 0:
                        clock.advance(outcome.advanced)
                if outcome.plan_state is not None:
                    plan.apply_remote_delta(plan_sent, outcome.plan_state)
                errors.append(ctx._absorb(outcome))
        return errors

    def call(self, partition_id: int, fn: Callable[[Any], Any]) -> Any:
        self._ensure_started()
        self._send(partition_id, ("call", fn))
        return self._recv(partition_id)


def resolve_backend(execution: Any) -> ExecutionBackend:
    """Map an ``execution=`` value to a fresh backend instance."""
    if isinstance(execution, ExecutionBackend):
        return execution
    factories = {
        "serial": SerialBackend,
        "processes": ProcessBackend,
    }
    try:
        return factories[execution]()
    except KeyError:
        raise ValueError(
            "unknown execution backend %r; expected one of %s"
            % (execution, ", ".join(repr(n) for n in EXECUTION_BACKENDS))
        ) from None


# ----------------------------------------------------------------------
# Process backend: worker side
# ----------------------------------------------------------------------
class _WorkerProcessState:
    """Everything resident in one worker process between batches."""

    def __init__(self, init: _WorkerInit) -> None:
        from .broadcast import BlockManager  # local to keep import light
        from .engine import WorkerContext

        self.worker = WorkerContext(
            init.partition_id, BlockManager(init.partition_id)
        )
        for bv_id, value in init.broadcast_values.items():
            self.worker.block_manager.put(bv_id, value)
        #: Sink emissions the worker graph captured this batch.
        self.emitted: List[Tuple[int, StreamRecord]] = []
        self.executor = PartitionExecutor(
            _graph_from_spec(init.graph, self.emitted),
            init.retry_policy,
            init.fault_plan,
            init.quarantines,
        )

    def pack_emits(self) -> bytes:
        """Encode this batch's captured emissions, and clear them."""
        try:
            return encode_emits(self.emitted)
        finally:
            self.emitted.clear()

    def run_batch(
        self,
        records: Sequence[StreamRecord],
        broadcast_deltas: List[Tuple[int, Any]],
        plan_state: Optional[Any],
        clock_now: Optional[float],
    ) -> RemoteBatchResult:
        for bv_id, value in broadcast_deltas:
            self.worker.block_manager.put(bv_id, value)
        plan = self.executor.fault_plan
        if plan is not None and plan_state is not None:
            plan.load_sync_state(plan_state)
        policy = self.executor.retry_policy
        clock = policy.clock if policy is not None else None
        manual = isinstance(clock, ManualClock)
        if manual:
            if clock_now is not None:
                clock.reset(clock_now)
            sleeps_before = len(clock.sleeps)
            clock_before = clock.monotonic()
        outcome = self.executor.run_partition(self.worker, records)
        sleeps: List[float] = []
        advanced = 0.0
        if manual:
            sleeps = list(clock.sleeps[sleeps_before:])
            advanced = max(
                0.0,
                (clock.monotonic() - clock_before)
                - sum(max(0.0, s) for s in sleeps),
            )
        return RemoteBatchResult(
            **vars(outcome),
            sleeps=sleeps,
            advanced=advanced,
            plan_state=plan.sync_state() if plan is not None else None,
        )


def _picklable(obj: Any) -> bool:
    try:
        ForkingPickler.dumps(obj)
    except Exception:
        return False
    return True


def _reply(conn: Any, message: Tuple[str, Any]) -> None:
    """Send a reply, degrading to a picklable error if pickling fails.

    ``Connection.send`` serialises fully before writing, so a pickling
    failure leaves the pipe clean for the fallback message.
    """
    try:
        conn.send(message)
    except Exception as exc:
        conn.send((
            "error",
            ExecutionError(
                "worker reply could not be pickled: %s" % (exc,)
            ),
        ))


def _worker_main(conn: Any) -> None:
    """Entry point of one worker process: serve requests until stopped."""
    # The driver owns interrupt handling; workers exit via "stop" (or the
    # daemon flag when the driver dies).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    state: Optional[_WorkerProcessState] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "init":
                state = _WorkerProcessState(message[1])
                _reply(conn, ("ready", None))
            elif kind == "batch":
                _, frame, deltas, plan_state, clock_now = message
                result = state.run_batch(
                    decode_records(frame), deltas, plan_state, clock_now
                )
                error = result.error
                if error is not None and not _picklable(error):
                    # Ship the partition's partial outcome regardless.
                    result.error = ExecutionError(
                        "partition walk raised an exception that could "
                        "not be pickled: %s: %s"
                        % (type(error).__name__, error)
                    )
                _reply(conn, ("ok", (state.pack_emits(), result)))
            elif kind == "call":
                _reply(conn, ("ok", message[1](state.worker)))
            else:  # pragma: no cover - protocol guard
                _reply(conn, (
                    "error",
                    ExecutionError("unknown worker message %r" % (kind,)),
                ))
        except BaseException as exc:  # noqa: BLE001 - shipped to driver
            try:
                _reply(conn, ("error", exc))
            except Exception:  # pragma: no cover - defensive
                break
    conn.close()
