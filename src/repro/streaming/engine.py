"""A miniature micro-batch streaming engine (the Spark stand-in).

The engine reproduces the execution model LogLens deploys on (paper,
Sections II and V): a driver schedules *micro-batches*; each batch is
partitioned across workers; workers run an operator chain over their
records, reading models through broadcast variables cached in per-worker
block managers and keeping event state in per-partition state maps.

The two LogLens-specific enhancements are wired into the scheduler:

* **zero-downtime model updates** — pending rebroadcasts are drained in a
  serialised lock step *between* micro-batches
  (:meth:`StreamingContext.run_batch`), so the service never restarts and
  state maps survive every model update;
* **heartbeat fan-out** — the default partitioner duplicates heartbeat
  records to every partition so each worker can sweep its own expired
  states.

The operator graph supports branching (one node, several children), which
the LogLens pipeline uses to split parser output into the anomaly sink and
the sequence-detector stage.

**Fault tolerance** (the always-on requirement, Section V): every
operator invocation can run under a
:class:`~repro.streaming.retry.RetryPolicy` — transient failures
re-execute with exponential backoff (deterministic jitter hook,
injectable clock), and records that still fail are *quarantined*:
wrapped as :class:`~repro.streaming.retry.QuarantinedRecord` with
failure metadata, stored on the context, and routed to an optional
dead-letter sink.  The batch always completes; sibling branches and
other records are unaffected.  Sinks are driver callbacks, not
operators: they are called once per record, never retried.  A
:class:`~repro.faults.FaultPlan` may be installed to inject failures at
every operator site and at broadcast pulls (see ``docs/FAULT_TOLERANCE.md``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from ..errors import PartitioningError
from ..obs import MetricsRegistry, get_registry
from .broadcast import BlockManager, BroadcastManager, BroadcastVariable
from .execution import (
    ExecutionBackend,
    PartitionExecutor,
    PartitionOutcome,
    resolve_backend,
)
from .partitioner import HashPartitioner, HeartbeatAwarePartitioner, partition_records
from .records import StreamRecord
from .retry import QuarantinedRecord, RetryPolicy
from .state import StateMap

__all__ = [
    "WorkerContext",
    "DStream",
    "Collector",
    "CollectedRecords",
    "QuarantineStore",
    "BatchMetrics",
    "EngineMetrics",
    "StreamingContext",
]


@dataclass
class WorkerContext:
    """Everything an operator can touch on the worker it runs on."""

    partition_id: int
    block_manager: BlockManager
    #: State maps keyed by the owning operator's node id.
    _states: Dict[int, StateMap] = field(default_factory=dict)

    def state_for(self, node_id: int) -> StateMap:
        state = self._states.get(node_id)
        if state is None:
            state = StateMap(self.partition_id)
            self._states[node_id] = state
        return state


class _Node:
    """One operator in the streaming graph."""

    __slots__ = ("node_id", "kind", "fn", "children", "site")

    def __init__(self, node_id: int, kind: str, fn: Optional[Callable]) -> None:
        self.node_id = node_id
        self.kind = kind
        self.fn = fn
        self.children: List["_Node"] = []
        #: Fault-injection site name; sources and sinks have none.
        self.site = (
            None if kind in ("source", "sink")
            else "operator:%s:%d" % (kind, node_id)
        )


class Collector:
    """A terminal sink safe to read while another thread appends.

    :meth:`snapshot` returns a consistent copy taken under the same lock
    the appenders hold; call it at batch boundaries (after ``run_batch``
    returns, all appends for that batch have happened-before the caller).
    :meth:`view` wraps the collector in a read-only sequence for callers
    that want container semantics.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[StreamRecord] = []

    def append(self, record: StreamRecord) -> None:
        with self._lock:
            self._records.append(record)

    def snapshot(self) -> List[StreamRecord]:
        """A consistent copy of everything collected so far."""
        with self._lock:
            return list(self._records)

    def clear(self) -> List[StreamRecord]:
        """Drain: return a snapshot and empty the collector atomically."""
        with self._lock:
            out = self._records
            self._records = []
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def view(self) -> "CollectedRecords":
        """A read-only, always-consistent sequence view of this sink."""
        return CollectedRecords(self)


class CollectedRecords(Sequence):
    """Read-only sequence over a :class:`Collector`.

    Every access (``len``, iteration, indexing, slicing) reads a
    consistent snapshot taken under the collector's lock, so no caller
    ever holds the live mutable list that the engine appends to.
    """

    __slots__ = ("_collector",)

    def __init__(self, collector: Collector) -> None:
        self._collector = collector

    def __len__(self) -> int:
        return len(self._collector)

    def __getitem__(self, index: Any) -> Any:
        return self._collector.snapshot()[index]

    def __iter__(self) -> Iterator[StreamRecord]:
        return iter(self._collector.snapshot())

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, CollectedRecords):
            other = other._collector.snapshot()
        if isinstance(other, (list, tuple)):
            return self._collector.snapshot() == list(other)
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # mutable view; equality is by current contents

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CollectedRecords(%r)" % (self._collector.snapshot(),)


class QuarantineStore:
    """Thread-safe store of records quarantined during batches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[QuarantinedRecord] = []

    def add(self, record: QuarantinedRecord) -> None:
        with self._lock:
            self._records.append(record)

    def snapshot(self) -> List[QuarantinedRecord]:
        with self._lock:
            return list(self._records)

    def drain(self) -> List[QuarantinedRecord]:
        """Return everything quarantined so far and empty the store."""
        with self._lock:
            out = self._records
            self._records = []
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class DStream:
    """A (discretised) stream: a node in the operator graph.

    Transformations return new streams; ``sink``/``collector`` terminate
    a branch.  All operators receive and emit :class:`StreamRecord`.
    """

    def __init__(self, ctx: "StreamingContext", node: _Node) -> None:
        self._ctx = ctx
        self._node = node

    # ------------------------------------------------------------------
    def _attach(self, kind: str, fn: Optional[Callable]) -> "DStream":
        node = self._ctx._new_node(kind, fn)
        self._node.children.append(node)
        return DStream(self._ctx, node)

    def map(
        self, fn: Callable[[StreamRecord, WorkerContext], Optional[StreamRecord]]
    ) -> "DStream":
        """1→0/1 transformation; return ``None`` to drop the record."""
        return self._attach("map", fn)

    def flat_map(
        self,
        fn: Callable[[StreamRecord, WorkerContext], Iterable[StreamRecord]],
    ) -> "DStream":
        """1→N transformation."""
        return self._attach("flat_map", fn)

    def filter(
        self, predicate: Callable[[StreamRecord], bool]
    ) -> "DStream":
        return self._attach("filter", predicate)

    def map_with_state(
        self,
        fn: Callable[
            [StreamRecord, StateMap, WorkerContext], Iterable[StreamRecord]
        ],
    ) -> "DStream":
        """Stateful 1→N transformation over the partition's state map.

        The full map is handed to ``fn`` — including for heartbeat
        records — reproducing the ``getParentStateMap`` extension.
        """
        return self._attach("map_with_state", fn)

    def sink(self, fn: Callable[[StreamRecord], None]) -> "DStream":
        """Terminal side-effecting consumer."""
        return self._attach("sink", fn)

    def collector(self) -> Collector:
        """Terminal sink into a :class:`Collector` (snapshot semantics).

        This is the documented terminal API: read results with
        ``snapshot()`` (consistent copy) or ``drain()`` (copy + clear).
        """
        collector = Collector()
        self._attach("sink", collector.append)
        return collector


@dataclass
class BatchMetrics:
    """Per-micro-batch accounting."""

    batch_index: int
    records_in: int
    model_updates_applied: int
    duration_seconds: float
    #: Operator re-executions performed during this batch.
    retries: int = 0
    #: Records that exhausted retries and were quarantined this batch.
    quarantined: int = 0


@dataclass
class EngineMetrics:
    """Whole-run accounting; ``downtime_seconds`` stays zero by design.

    ``batch_history`` keeps the most recent ``history_limit`` batches so a
    long-running service's metrics stay bounded.
    """

    batches: int = 0
    records: int = 0
    model_updates: int = 0
    downtime_seconds: float = 0.0
    retries: int = 0
    quarantined: int = 0
    history_limit: int = 1000
    batch_history: List[BatchMetrics] = field(default_factory=list)

    def record_batch(self, batch: BatchMetrics) -> None:
        self.batch_history.append(batch)
        if len(self.batch_history) > self.history_limit:
            del self.batch_history[: -self.history_limit]


class StreamingContext:
    """Driver: owns workers, the broadcast manager, and the scheduler.

    Parameters
    ----------
    num_partitions:
        Worker/partition count (the paper's cluster has 8 workers).
    partitioner:
        Defaults to :class:`HeartbeatAwarePartitioner`.
    execution:
        ``"serial"`` (default), ``"processes"``, or a pre-built
        :class:`~repro.streaming.execution.ExecutionBackend`.
        ``"processes"`` runs each partition in a long-lived worker
        process — operator functions must be picklable; see
        ``docs/PARALLELISM.md``.
    retry_policy:
        Re-execute failing operator calls per this policy; records that
        exhaust it are quarantined instead of aborting the batch.  Sinks
        are never retried.  With the default ``None`` (and no
        ``dead_letter`` sink) or ``on_exhaust="raise"``, a failure stops
        its partition; the others still run, then the lowest-numbered
        partition's exception propagates from :meth:`run_batch`.
    dead_letter:
        Callable receiving each :class:`QuarantinedRecord` (the service
        wires this to the bus's dead-letter topic).  Providing a sink
        without a policy enables quarantine with zero retries.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; installs injection
        sites at every operator invocation (``operator:<kind>:<id>``)
        and at broadcast pulls (``broadcast.pull``); sinks have none.
    """

    def __init__(
        self,
        num_partitions: int = 4,
        partitioner: Optional[HashPartitioner] = None,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        dead_letter: Optional[Callable[[QuarantinedRecord], None]] = None,
        fault_plan: Optional[Any] = None,
        execution: Union[str, ExecutionBackend] = "serial",
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self.partitioner = (
            partitioner
            if partitioner is not None
            else HeartbeatAwarePartitioner(num_partitions)
        )
        self.broadcast_manager = BroadcastManager()
        self.workers = [
            WorkerContext(i, BlockManager(i)) for i in range(num_partitions)
        ]
        for worker in self.workers:
            self.broadcast_manager.register_worker(worker.block_manager)
        self._next_node_id = 0
        self._roots: List[_Node] = []
        self._nodes: Dict[int, _Node] = {}
        self.metrics = EngineMetrics()
        self.obs = metrics if metrics is not None else get_registry()
        self._batch_seconds = self.obs.histogram("engine.batch_seconds")
        self._rebroadcast_seconds = self.obs.histogram(
            "engine.rebroadcast_apply_seconds"
        )
        self._records_in = self.obs.counter("engine.records")
        self._partition_records = [
            self.obs.counter("engine.partition_records", partition=str(i))
            for i in range(num_partitions)
        ]
        # Fault-tolerance plane.  Per-context counts live in
        # `self.metrics`; the registry families sum over every context
        # sharing the registry (the service runs two).
        if retry_policy is None and dead_letter is not None:
            retry_policy = RetryPolicy.no_wait(max_attempts=1)
        self.retry_policy = retry_policy
        self._dead_letter = dead_letter
        self._fault_plan = fault_plan
        if fault_plan is not None:
            self.broadcast_manager.fault_plan = fault_plan
        self.quarantine = QuarantineStore()
        self._retries_total = self.obs.counter("engine.retries_total")
        self._quarantined_total = self.obs.counter(
            "engine.quarantined_total"
        )
        self._retry_backoff_seconds = self.obs.histogram(
            "engine.retry_backoff_seconds"
        )
        # Bucket lists recycled across micro-batches; run_batch is
        # driver-serialised, so one set per context is safe.
        self._bucket_buffers: List[List[StreamRecord]] = [
            [] for _ in range(num_partitions)
        ]
        # Execution plane: the graph walk (shared by the driver and
        # worker processes) plus the backend that schedules it.
        self._executor = PartitionExecutor(
            self._roots, self.retry_policy, self._fault_plan
        )
        self._backend = resolve_backend(execution)
        self._backend.attach(self)
        #: Resolved backend name ("serial" | "processes").
        self.execution = self._backend.name

    @property
    def retries_total(self) -> int:
        """Operator re-executions performed by this context."""
        return self.metrics.retries

    @property
    def quarantined_total(self) -> int:
        """Records quarantined by this context."""
        return self.metrics.quarantined

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _new_node(self, kind: str, fn: Optional[Callable]) -> _Node:
        node = _Node(self._next_node_id, kind, fn)
        self._nodes[node.node_id] = node
        self._next_node_id += 1
        return node

    def source(self) -> DStream:
        """Create an input stream fed by :meth:`run_batch`."""
        node = self._new_node("source", None)
        self._roots.append(node)
        return DStream(self, node)

    # ------------------------------------------------------------------
    # Broadcast plumbing
    # ------------------------------------------------------------------
    def broadcast(self, value: Any) -> BroadcastVariable:
        return self.broadcast_manager.broadcast(value)

    def rebroadcast(self, bv: BroadcastVariable, value: Any) -> None:
        """Queue a model update; applied before the next micro-batch."""
        self.broadcast_manager.rebroadcast(bv, value)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def run_batch(self, records: Sequence[StreamRecord]) -> BatchMetrics:
        """Execute one micro-batch over all registered streams."""
        started = time.perf_counter()
        retries_before = self.metrics.retries
        quarantined_before = self.metrics.quarantined
        # Serialised lock step between batches: drain model updates with
        # zero downtime (the stream is simply between two batches).
        with self._rebroadcast_seconds.time():
            updates = self.broadcast_manager.apply_pending_updates()
        buckets = partition_records(
            records, self.partitioner, into=self._bucket_buffers
        )
        if len(buckets) != len(self.workers):
            # zip() would silently drop trailing buckets (lost records)
            # or starve trailing workers; a partitioner that disagrees
            # with the context about the partition count is a bug.
            raise PartitioningError(
                "partitioner produced %d buckets for %d partitions; "
                "partitioner.num_partitions must match the context"
                % (len(buckets), len(self.workers))
            )
        for worker, bucket in zip(self.workers, buckets):
            self._partition_records[worker.partition_id].inc(len(bucket))
        # Every partition has been absorbed; now raise the first failure.
        for error in self._backend.run_batch(buckets):
            if error is not None:
                raise error
        elapsed = time.perf_counter() - started
        self._batch_seconds.observe(elapsed)
        self._records_in.inc(len(records))
        # run_batch is driver-serialised, so counter deltas are exact.
        batch_retries = self.metrics.retries - retries_before
        batch_quarantined = self.metrics.quarantined - quarantined_before
        self.metrics.batches += 1
        self.metrics.records += len(records)
        self.metrics.model_updates += updates
        batch = BatchMetrics(
            batch_index=self.metrics.batches - 1,
            records_in=len(records),
            model_updates_applied=updates,
            duration_seconds=elapsed,
            retries=batch_retries,
            quarantined=batch_quarantined,
        )
        self.metrics.record_batch(batch)
        return batch

    def run_batches(
        self, batches: Iterable[Sequence[StreamRecord]]
    ) -> List[BatchMetrics]:
        return [self.run_batch(batch) for batch in batches]

    def shutdown(self) -> None:
        """Release backend resources (worker processes).

        Idempotent; serial contexts make it a no-op.  Long-lived owners
        (the service, ``serve``/``watch``) call this on teardown.
        """
        self._backend.shutdown()

    # ------------------------------------------------------------------
    # Partition state access
    # ------------------------------------------------------------------
    def call_partition(
        self, partition_id: int, fn: Callable[[WorkerContext], Any]
    ) -> Any:
        """Run ``fn(worker)`` against a partition's resident worker.

        The portable way to reach per-partition state (checkpointing,
        final flushes, gauges): local backends call ``fn`` directly on
        ``self.workers[partition_id]``; the process backend ships ``fn``
        to the resident worker process and returns its result — ``fn``
        must then be picklable (use ``functools.partial`` over a
        module-level function) and so must its return value.
        """
        if not 0 <= partition_id < self.num_partitions:
            raise ValueError(
                "partition_id %d out of range [0, %d)"
                % (partition_id, self.num_partitions)
            )
        return self._backend.call(partition_id, fn)

    # ------------------------------------------------------------------
    # Fault-tolerance bookkeeping (driver side)
    # ------------------------------------------------------------------
    def _absorb(self, outcome: PartitionOutcome) -> Optional[Exception]:
        """Fold one partition's outcome into driver state; both backends
        call this once per partition, in partition order.  Returns the
        partition's exception: its walk's, or the first a replayed sink
        raised (its later emissions are dropped, as on serial)."""
        error = outcome.error
        try:
            for node_id, record in outcome.emitted:
                self._nodes[node_id].fn(record)
        except Exception as exc:
            error = exc
        if outcome.retries:
            self.metrics.retries += outcome.retries
            self._retries_total.inc(outcome.retries)
        for delay in outcome.backoffs:
            self._retry_backoff_seconds.observe(delay)
        if outcome.quarantined:
            self.metrics.quarantined += len(outcome.quarantined)
            self._quarantined_total.inc(len(outcome.quarantined))
            for quarantined in outcome.quarantined:
                self.quarantine.add(quarantined)
                if self._dead_letter is not None:
                    self._dead_letter(quarantined)
        return error
