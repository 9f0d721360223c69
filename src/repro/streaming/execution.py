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
  sync), and return captured sink emissions, quarantine entries, retry
  counters, and fault-plan/clock bookkeeping which the driver replays
  so observable semantics match serial execution.

The bulk payloads — record buckets going out, sink emissions coming
back — travel as single columnar frames (:mod:`repro.streaming.codec`)
through per-worker shared-memory arenas (:mod:`repro.streaming.shm`);
only a tiny frame descriptor plus the control metadata (deltas,
fault-plan state, clock readings, counters) crosses the pipe.  While a
fault plan has a live call-ordinal budget (``fail_first``/``fail_nth``),
partitions are chained sequentially in partition order so budget
counting is *exactly* the serial schedule even across partitions; once
every budget is spent the batch fans out fully parallel again.

The operator-graph walk itself — fault injection, retry loop, quarantine
— lives in :class:`PartitionExecutor`, shared verbatim between the
driver and the worker processes.  It calls sink functions directly; in
a worker process each sink is a capture function recording
``(node_id, record)`` pairs, which the driver replays in partition order
— exactly the sink order of serial execution.  Each walk returns one
:class:`PartitionOutcome`, folded into the driver in partition order; a
failing partition's exception is raised after every partition's fold.

See ``docs/PARALLELISM.md`` for the protocol and its determinism
caveats.
"""

from __future__ import annotations

import multiprocessing
import signal
from dataclasses import dataclass, field
from functools import partial
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
from .shm import FRAME_OVERHEAD, ShmArena, grown_capacity

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
    #: execution order (the serial walk calls its sinks inline).
    emitted: List[Tuple[int, StreamRecord]] = field(default_factory=list)
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    retries: int = 0
    backoffs: List[float] = field(default_factory=list)
    #: The exception that stopped the walk; everything above is what the
    #: partition produced before it.
    error: Optional[Exception] = None


class PartitionExecutor:
    """Walks the operator graph for one partition's records.

    This is the engine's execution core — fault injection at
    ``operator:<kind>:<node_id>`` sites, the retry loop with measured
    per-attempt timeouts, and quarantine on exhaustion — factored out of
    :class:`~repro.streaming.engine.StreamingContext` so the driver and
    worker processes run the identical code path.  Sinks are called
    directly: no fault site, retry or quarantine.  :meth:`run_partition`
    returns the exception that stopped the walk in the outcome instead
    of raising it.
    """

    def __init__(
        self,
        roots: List[Any],
        retry_policy: Optional[RetryPolicy],
        fault_plan: Optional[Any],
    ) -> None:
        self.roots = roots
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self._outcome: Optional[PartitionOutcome] = None

    # ------------------------------------------------------------------
    def run_partition(
        self, worker: Any, records: Sequence[StreamRecord]
    ) -> PartitionOutcome:
        outcome = self._outcome = PartitionOutcome(worker.partition_id)
        try:
            for record in records:
                for root in self.roots:
                    for child in root.children:
                        self._apply(child, record, worker)
        except Exception as exc:
            outcome.error = exc
        return outcome

    def _apply(self, node: Any, record: StreamRecord, worker: Any) -> None:
        if node.kind == "sink":
            node.fn(record)
            return
        outputs = self._invoke(node, record, worker)
        if outputs is _QUARANTINED:
            return
        for out in outputs:
            for child in node.children:
                self._apply(child, out, worker)

    def _call_operator(
        self, node: Any, record: StreamRecord, worker: Any
    ) -> List[StreamRecord]:
        """Run one operator over one record; returns its outputs."""
        kind = node.kind
        if kind == "map":
            out = node.fn(record, worker)
            return [] if out is None else [out]
        if kind == "flat_map":
            return list(node.fn(record, worker))
        if kind == "filter":
            return [record] if node.fn(record) else []
        if kind == "map_with_state":
            state = worker.state_for(node.node_id)
            return list(node.fn(record, state, worker))
        # pragma: no cover - graph construction prevents this
        raise RuntimeError("unknown operator kind %r" % kind)

    def _invoke(self, node: Any, record: StreamRecord, worker: Any) -> Any:
        """One operator invocation under fault injection and retries.

        Returns the operator's outputs, or the ``_QUARANTINED`` sentinel
        when the record exhausted its retry budget (the failing node's
        subtree is skipped; sibling branches and other records proceed).
        """
        plan = self.fault_plan
        policy = self.retry_policy
        if policy is None:
            # Legacy fail-fast path: exceptions abort the batch.
            if plan is None:
                return self._call_operator(node, record, worker)
            return plan.invoke(
                node.site, self._call_operator, node, record, worker,
                subject=record,
            )
        clock = policy.clock
        attempt = 0
        while True:
            attempt += 1
            attempt_started = clock.monotonic()
            try:
                if plan is not None:
                    outputs = plan.invoke(
                        node.site, self._call_operator, node, record,
                        worker, subject=record,
                    )
                else:
                    outputs = self._call_operator(node, record, worker)
                timeout = policy.per_attempt_timeout_seconds
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
                if attempt >= policy.max_attempts:
                    return self._exhausted(node, record, worker,
                                           attempt, exc)
                self._outcome.retries += 1
                delay = policy.delay_for(attempt)
                self._outcome.backoffs.append(delay)
                if delay > 0:
                    clock.sleep(delay)

    def _exhausted(
        self,
        node: Any,
        record: StreamRecord,
        worker: Any,
        attempts: int,
        exc: BaseException,
    ) -> Any:
        """Retry budget spent: quarantine the record (or fail fast)."""
        if self.retry_policy.on_exhaust == "raise":
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
        return _QUARANTINED


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
    broadcast_values: Dict[int, Any]
    #: Shared-memory segment names (driver -> worker / worker -> driver).
    shm_in: str
    shm_out: str


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


def _capture(emitted: List[Any], node_id: int, record: Any) -> None:
    emitted.append((node_id, record))


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
        #: Driver-owned arenas: record buckets out, emissions back.  All
        #: segments are created *and unlinked* here so a worker killed
        #: mid-batch can never strand one.
        self._in_arenas: List[ShmArena] = []
        self._out_arenas: List[ShmArena] = []
        #: Out-arena growth pending announcement on the next batch
        #: message, per partition: ``(segment_name, capacity)``.
        self._pending_out: List[Optional[Tuple[str, int]]] = []
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
        ctx = self._ctx
        mp = multiprocessing.get_context("spawn")
        spec = _graph_spec(ctx._roots)
        snapshot = ctx.broadcast_manager.sync_snapshot()
        values = {bv_id: value for bv_id, (_, value) in snapshot.items()}
        self._synced_versions = {
            bv_id: version for bv_id, (version, _) in snapshot.items()
        }
        for partition_id in range(ctx.num_partitions):
            self._in_arenas.append(ShmArena.create())
            self._out_arenas.append(ShmArena.create())
            self._pending_out.append(None)
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
                broadcast_values=values,
                shm_in=self._in_arenas[-1].name,
                shm_out=self._out_arenas[-1].name,
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
        # Unlink every arena — including on the terminate path above,
        # where workers never got to close their mappings (the kernel
        # drops those with the process; unlink here removes the name).
        for arena in self._in_arenas + self._out_arenas:
            arena.close()
        self._procs = []
        self._conns = []
        self._in_arenas = []
        self._out_arenas = []
        self._pending_out = []

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

    def _ship_bucket(self, partition_id: int, frame: bytes) -> Any:
        """Place one encoded bucket; return the wire reference.

        Prefers the partition's in-arena, growing it (new segment, old
        one unlinked) when the frame outgrows the current capacity, and
        falling back to shipping the frame inline over the pipe past
        the growth cap.
        """
        arena = self._in_arenas[partition_id]
        placed = arena.write(frame)
        if placed is not None:
            return ("frame", placed[0], placed[1])
        capacity = grown_capacity(len(frame))
        if capacity < len(frame) + FRAME_OVERHEAD:
            return ("inline", frame)
        grown = ShmArena.create(capacity)
        arena.close()
        self._in_arenas[partition_id] = grown
        offset, length = grown.write(frame)
        return ("grow", grown.name, capacity, offset, length)

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
            ref = self._ship_bucket(partition_id, encode_records(bucket))
            out_spec = self._pending_out[partition_id]
            self._pending_out[partition_id] = None
            self._send(
                partition_id,
                ("batch", ref, out_spec, deltas, plan_sent, clock_now),
            )
        except Exception as exc:
            return RemoteBatchResult(partition_id, error=exc)
        return None

    def _read_outcome(self, partition_id: int) -> RemoteBatchResult:
        """Read one partition's reply and materialise its emissions; a
        dead worker or an error reply becomes the outcome's ``error``."""
        try:
            ref, result = self._recv(partition_id)
        except Exception as exc:
            return RemoteBatchResult(partition_id, error=exc)
        if ref is None:
            return result
        if ref[0] == "frame":
            view = self._out_arenas[partition_id].read(ref[1], ref[2])
            try:
                result.emitted = decode_emits(view)
            finally:
                view.release()
            return result
        # ("inline", frame, needed): the emissions outgrew the worker's
        # out-arena.  Decode from the pipe copy now and grow the arena
        # for the next batch (announced via the batch message, so the
        # worker re-attaches before writing again).
        _, frame, needed = ref
        result.emitted = decode_emits(frame)
        capacity = grown_capacity(needed)
        if capacity >= needed + FRAME_OVERHEAD:
            grown = ShmArena.create(capacity)
            self._out_arenas[partition_id].close()
            self._out_arenas[partition_id] = grown
            self._pending_out[partition_id] = (grown.name, capacity)
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
        self.arena_in = ShmArena.attach(init.shm_in)
        self.arena_out = ShmArena.attach(init.shm_out)
        for bv_id, value in init.broadcast_values.items():
            self.worker.block_manager.put(bv_id, value)
        #: Sink emissions the worker graph captured this batch.
        self.emitted: List[Tuple[int, StreamRecord]] = []
        self.executor = PartitionExecutor(
            _graph_from_spec(init.graph, self.emitted),
            init.retry_policy,
            init.fault_plan,
        )

    def resolve_records(self, ref: Any) -> Sequence[StreamRecord]:
        """Turn a batch message's bucket reference into records."""
        kind = ref[0]
        if kind == "inline":  # frame too big for any arena
            return decode_records(ref[1])
        if kind == "grow":  # driver replaced the in-arena
            _, name, _capacity, offset, length = ref
            self.arena_in.close()
            self.arena_in = ShmArena.attach(name)
            ref = ("frame", offset, length)
        view = self.arena_in.read(ref[1], ref[2])
        try:
            return decode_records(view)
        finally:
            view.release()

    def reattach_out(self, name: str, _capacity: int) -> None:
        """Adopt a grown out-arena announced by the driver."""
        self.arena_out.close()
        self.arena_out = ShmArena.attach(name)

    def pack_emits(self) -> Any:
        """Move captured emissions into the out-arena; return the ref.

        Returns ``None`` for empty batches.  An ``("inline", frame,
        needed)`` reference ships the frame over the pipe and asks the
        driver to grow the out-arena before the next batch.
        """
        if not self.emitted:
            return None
        try:
            frame = encode_emits(self.emitted)
        finally:
            self.emitted.clear()
        placed = self.arena_out.write(frame)
        if placed is None:
            return ("inline", frame, len(frame))
        return ("frame", placed[0], placed[1])

    def close(self) -> None:
        """Drop this process's arena mappings (driver owns unlinking)."""
        self.arena_in.close()
        self.arena_out.close()

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
                _, ref, out_spec, deltas, plan_state, clock_now = message
                if out_spec is not None:
                    state.reattach_out(*out_spec)
                result = state.run_batch(
                    state.resolve_records(ref), deltas, plan_state,
                    clock_now,
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
    if state is not None:
        state.close()
    conn.close()
