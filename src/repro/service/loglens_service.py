"""End-to-end LogLens deployment (paper, Figure 1).

Wires every architectural component together on top of the streaming
substrate::

    agents → log manager → [parse context: stateless log parser]
                               ├─ unparsed → anomaly storage
                               └─ parsed ──(shuffle by event id)──▶
           heartbeat controller ┘
                          [sequence context: stateful detector]
                               └─ sequence anomalies → anomaly storage

Two streaming contexts model Spark's two stages with a shuffle between
them: parse output is re-keyed by event ID content so each partition owns
complete events.  Both model kinds live in broadcast variables; the model
manager publishes updates through the model controller, which queues
rebroadcasts applied at batch boundaries — the service never stops, and
open event states survive every update.

The service is driven synchronously: :meth:`ingest` enqueues raw lines,
:meth:`step` advances one micro-batch "period" end to end.  This keeps the
simulator deterministic while exercising the exact component graph of the
paper.  A step ends by archiving every line it polled, stamped with the
event time the parser detected, and writing the step's anomalies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import time as _time

from ..alerts import AlertEvaluator, AlertHistory
from ..faults import ManualClock
from ..obs import NullRegistry, get_registry
from ..parsing.parser import FastLogParser, ParsedLog, PatternModel
from ..parsing.tokenizer import Tokenizer
from ..sequence.detector import LogSequenceDetector
from ..sequence.model import SequenceModel
from ..streaming.engine import StreamingContext, WorkerContext
from ..streaming.records import StreamRecord
from ..streaming.retry import QuarantinedRecord, RetryPolicy
from ..streaming.state import StateMap
from .backends import parse_storage_spec
from .bus import MessageBus
from .config import ServiceConfig
from .heartbeat import HeartbeatController
from .log_manager import LogManager
from .model_builder import BuiltModels, ModelBuilder
from .model_controller import ModelBinding, ModelController
from .model_manager import ModelManager, PATTERN_MODEL, SEQUENCE_MODEL
from .sections import ReportSection
from .storage import AnomalyStorage, DocumentStore, LogStorage, ModelStorage

__all__ = [
    "StepReport",
    "QuarantineReport",
    "ReportSection",
    "ServiceReport",
    "ServiceConfig",
    "LogLensService",
    "PARSE_STAGE",
    "SEQUENCE_STAGE",
]

#: Dead-letter origin names for the two streaming stages.
PARSE_STAGE = "loglens.parse"
SEQUENCE_STAGE = "loglens.sequence"


# ----------------------------------------------------------------------
# Worker-side operators.
#
# These are module-level picklable classes (not bound methods of the
# service) so the process execution backend can ship them to resident
# worker processes.  Driver-held resources — the metrics registry and
# its handles — are dropped on pickling: worker-side copies observe into
# a no-op registry, so per-parser/per-sweep observability metrics are a
# driver-execution feature while every ServiceReport counter stays exact
# under all backends (see docs/PARALLELISM.md).
# ----------------------------------------------------------------------
class ParseOperator:
    """Stateless parse stage: one resident parser per worker."""

    def __init__(
        self,
        pattern_bv: Any,
        tokenizer_factory: Callable[[], Tokenizer],
        metrics: Any,
    ) -> None:
        self.pattern_bv = pattern_bv
        self.tokenizer_factory = tokenizer_factory
        self._metrics = metrics

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "pattern_bv": self.pattern_bv,
            "tokenizer_factory": self.tokenizer_factory,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.pattern_bv = state["pattern_bv"]
        self.tokenizer_factory = state["tokenizer_factory"]
        self._metrics = None

    def __call__(
        self, record: StreamRecord, worker: WorkerContext
    ) -> Iterable[StreamRecord]:
        model = self.pattern_bv.get_value(worker.block_manager)
        cached = getattr(worker, "_loglens_parser", None)
        if cached is None or cached.model is not model:
            if self._metrics is not None:
                # Each worker owns its parser, so metric publication can
                # be batched per micro-batch; step() flushes after every
                # parse run_batch, keeping service counts exact per step.
                cached = FastLogParser(
                    model,
                    tokenizer=self.tokenizer_factory(),
                    metrics=self._metrics,
                    deferred_metrics=True,
                )
            else:
                # Process-backend worker: no driver to flush deferred
                # buffers, so parse un-deferred into a no-op registry.
                cached = FastLogParser(
                    model,
                    tokenizer=self.tokenizer_factory(),
                    metrics=NullRegistry(),
                )
            worker._loglens_parser = cached  # type: ignore[attr-defined]
        source = record.source
        result = cached.parse(record.value["raw"], source=source)
        yield StreamRecord(
            value=result,
            key=record.key,
            source=source,
            timestamp_millis=result.timestamp_millis,
        )


class SequenceOperator:
    """Stateful sequence stage: one detector per partition in state."""

    def __init__(
        self,
        sequence_bv: Any,
        expiry_factor: float,
        min_expiry_millis: int,
        metrics: Any,
    ) -> None:
        self.sequence_bv = sequence_bv
        self.expiry_factor = expiry_factor
        self.min_expiry_millis = min_expiry_millis
        self._bind_metrics(metrics)

    def _bind_metrics(self, metrics: Any) -> None:
        self._metrics = metrics
        # Per-partition detector gauges, resolved once per partition.
        self._g_open_events: Dict[int, Any] = {}
        self._g_heap_depth: Dict[int, Any] = {}
        if metrics is not None:
            self._m_expired_states = metrics.counter(
                "heartbeat.expired_states"
            )
            self._m_partition_sweep = metrics.histogram(
                "heartbeat.partition_sweep_seconds"
            )
        else:
            self._m_expired_states = None
            self._m_partition_sweep = None

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "sequence_bv": self.sequence_bv,
            "expiry_factor": self.expiry_factor,
            "min_expiry_millis": self.min_expiry_millis,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.sequence_bv = state["sequence_bv"]
        self.expiry_factor = state["expiry_factor"]
        self.min_expiry_millis = state["min_expiry_millis"]
        self._bind_metrics(None)

    def __call__(
        self,
        record: StreamRecord,
        state: StateMap,
        worker: WorkerContext,
    ) -> Iterable[StreamRecord]:
        model = self.sequence_bv.get_value(worker.block_manager)
        detector: Optional[LogSequenceDetector] = state.get("_detector")
        if detector is None:
            detector = LogSequenceDetector(
                model,
                expiry_factor=self.expiry_factor,
                min_expiry_millis=self.min_expiry_millis,
            )
            state.put("_detector", detector)
        elif detector.model is not model:
            # Zero-downtime update: swap rules, keep surviving open events.
            detector.model = model
        if record.is_heartbeat:
            # A heartbeat triggers this partition's expired-state sweep;
            # time it and count what it expired.
            sweep_started = _time.perf_counter()
            anomalies = detector.process_heartbeat(
                record.timestamp_millis or 0
            )
            if self._m_partition_sweep is not None:
                self._m_partition_sweep.observe(
                    _time.perf_counter() - sweep_started
                )
                if anomalies:
                    self._m_expired_states.inc(len(anomalies))
                self._publish_detector_gauges(
                    worker.partition_id, detector
                )
        else:
            anomalies = detector.process(record.value)
        for anomaly in anomalies:
            yield StreamRecord(
                value=anomaly,
                source=anomaly.source,
                timestamp_millis=anomaly.timestamp_millis,
            )

    def _publish_detector_gauges(
        self, partition_id: int, detector: LogSequenceDetector
    ) -> None:
        """Refresh one partition's open-state gauges (post-sweep)."""
        open_gauge = self._g_open_events.get(partition_id)
        if open_gauge is None:
            label = str(partition_id)
            open_gauge = self._metrics.gauge(
                "detector.open_events", partition=label
            )
            self._g_open_events[partition_id] = open_gauge
            self._g_heap_depth[partition_id] = self._metrics.gauge(
                "detector.expiry_heap_depth", partition=label
            )
        open_gauge.set(detector.open_event_count)
        self._g_heap_depth[partition_id].set(detector.expiry_heap_depth)


# ----------------------------------------------------------------------
# Per-partition state functions, shipped to resident workers through
# ``StreamingContext.call_partition`` (picklable via functools.partial;
# the worker context is always the trailing argument).
# ----------------------------------------------------------------------
def _partition_detector_snapshot(node_id: int, worker: WorkerContext) -> Any:
    state = worker._states.get(node_id)
    if state is None:
        return None
    detector = state.get("_detector")
    return None if detector is None else detector.snapshot()


def _partition_flush(worker: WorkerContext) -> List[Dict[str, Any]]:
    flushed: List[Dict[str, Any]] = []
    for state in worker._states.values():
        detector = state.get("_detector")
        if detector is not None:
            flushed.extend(
                anomaly.to_dict() for anomaly in detector.flush()
            )
    return flushed


def _partition_open_events(worker: WorkerContext) -> int:
    total = 0
    for state in worker._states.values():
        detector = state.get("_detector")
        if detector is not None:
            total += detector.open_event_count
    return total


def _partition_restore_detector(
    node_id: int,
    snapshot: Dict[str, Any],
    sequence_bv: Any,
    expiry_factor: float,
    min_expiry_millis: int,
    worker: WorkerContext,
) -> None:
    model: SequenceModel = sequence_bv.get_value(worker.block_manager)
    detector = LogSequenceDetector.restore(
        snapshot,
        model,
        expiry_factor=expiry_factor,
        min_expiry_millis=min_expiry_millis,
    )
    worker.state_for(node_id).put("_detector", detector)


@dataclass
class StepReport:
    """What one service step accomplished."""

    ingested: int
    parsed: int
    stateless_anomalies: int
    sequence_anomalies: int
    heartbeats: int
    model_updates_applied: int
    #: Operator re-executions performed during this step's batches.
    retries: int = 0
    #: Records quarantined to dead-letter topics during this step.
    quarantined: int = 0
    #: Alert lifecycle events (fired/resolved) emitted during this step.
    alerts: int = 0
    #: The anomaly docs this step wrote, in write order: a streaming
    #: consumer prints these instead of reading the anomaly table back.
    anomaly_docs: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class QuarantineReport:
    """Fault-tolerance accounting across both streaming stages."""

    retries: int
    quarantined: int
    dead_letter_depth: int
    dead_letter_origins: List[str] = field(default_factory=list)


@dataclass
class ServiceReport:
    """The one results surface of a running service.

    Returned by :meth:`LogLensService.report`; merges the old
    ``stats()`` counters and ``metrics_snapshot()`` export into one
    typed object.  ``metrics`` is the full observability snapshot (or
    ``None`` when requested without it).

    ``sections`` holds one dict per registered
    :class:`~repro.service.sections.ReportSection` provider, keyed by
    section name in registration order — ``quarantine`` first, then
    ``alerts``; that ordering is part of the export contract.  The
    typed ``quarantine`` field mirrors its section for ergonomic
    access; :attr:`alerts` does the same for the alerting section.
    """

    steps: int
    logs_archived: int
    anomalies: int
    open_events: int
    parse_batches: int
    sequence_batches: int
    model_updates: int
    downtime_seconds: float
    quarantine: QuarantineReport
    metrics: Optional[Dict[str, Any]] = None
    sections: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def alerts(self) -> Optional[Dict[str, Any]]:
        """The alerting section (None when no evaluator registered)."""
        return self.sections.get("alerts")

    def counters(self) -> Dict[str, Any]:
        """The legacy ``stats()`` dict (exactly the historical keys)."""
        return {
            "steps": self.steps,
            "logs_archived": self.logs_archived,
            "anomalies": self.anomalies,
            "open_events": self.open_events,
            "parse_batches": self.parse_batches,
            "sequence_batches": self.sequence_batches,
            "model_updates": self.model_updates,
            "downtime_seconds": self.downtime_seconds,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe export: counters, then each registered section in
        registration order, then the optional metrics snapshot."""
        out = self.counters()
        if "quarantine" not in self.sections:
            # Hand-constructed reports (no section registry): keep the
            # historical quarantine export from the typed field.
            out["quarantine"] = {
                "retries": self.quarantine.retries,
                "quarantined": self.quarantine.quarantined,
                "dead_letter_depth": self.quarantine.dead_letter_depth,
                "dead_letter_origins": list(
                    self.quarantine.dead_letter_origins
                ),
            }
        for name, section in self.sections.items():
            out[name] = dict(section)
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out


class _QuarantineSection:
    """The fault-tolerance accounting as a ``ReportSection`` provider."""

    section_name = "quarantine"

    def __init__(self, service: "LogLensService") -> None:
        self._service = service

    def report_section(self) -> Dict[str, Any]:
        service = self._service
        return {
            "retries": service.retries_total(),
            "quarantined": service.quarantined_total(),
            "dead_letter_depth": service.dead_letter_depth(),
            "dead_letter_origins": service.bus.dead_letter_topics(),
        }


class LogLensService:
    """The complete system of Figure 1, runnable in one process.

    Construction
    ------------
    The primary surface is one frozen config object::

        service = LogLensService(config=ServiceConfig(num_partitions=8))

    See :class:`~repro.service.config.ServiceConfig` for every knob
    (partitions, heartbeat cadence, expiry, metrics, retry, faults,
    storage, network-ingestion limits, and alerting) — or build one
    from a declarative file with ``ServiceConfig.from_file``.

    Storage note: when a persistent database already holds model
    versions from an earlier run, the latest models are republished into
    the pipeline at construction — a restarted service resumes detecting
    without retraining, and can replay / rebuild from the persisted
    archive.  Call :meth:`close` to checkpoint and release the database.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        if config is None:
            config = ServiceConfig()
        #: The frozen construction parameters of this service.
        self.config = config
        num_partitions = config.num_partitions
        self.tokenizer_factory = config.tokenizer_factory or Tokenizer
        self.heartbeat_period_steps = max(
            1, config.heartbeat_period_steps
        )
        self.expiry_factor = config.expiry_factor
        self.min_expiry_millis = config.min_expiry_millis
        self.heartbeats_enabled = config.heartbeats_enabled
        #: One registry spans every layer of this service (bus, parsing,
        #: engine, heartbeat); snapshot it with :meth:`report`.
        self.metrics = (
            config.metrics if config.metrics is not None else get_registry()
        )
        self.retry_policy = (
            config.retry_policy
            if config.retry_policy is not None
            else RetryPolicy.no_wait(max_attempts=3, clock=ManualClock())
        )
        fault_plan = config.fault_plan
        self.fault_plan = fault_plan
        builder = config.builder

        # Transport and storage plane.  The backend is pluggable: the
        # in-memory default, or one shared SQLite(WAL) database so the
        # archive, models, and anomalies survive a restart.
        self.bus = MessageBus(metrics=self.metrics)
        self.bus.ensure_topic("logs.raw", partitions=num_partitions)
        # ``backend(name)`` opens one named document collection (logs,
        # anomalies, alerts) of the configured kind.
        self.storage_config = parse_storage_spec(config.storage)
        self.storage_database = None
        journal: Optional[Callable[[], Any]] = None
        if self.storage_config.kind == "sqlite":
            from .sqlite_store import (
                SQLiteDatabase,
                SQLiteDocumentStore,
                SQLiteModelJournal,
            )

            self.storage_database = SQLiteDatabase(self.storage_config.path)
            backend: Callable[[str], Any] = partial(
                SQLiteDocumentStore,
                self.storage_database,
                metrics=self.metrics,
            )
            journal = partial(SQLiteModelJournal, self.storage_database)
        else:
            backend = partial(DocumentStore, self.metrics)
        self.log_storage = LogStorage(backend=backend("logs"))
        self.model_storage = ModelStorage(
            journal=journal() if journal is not None else None
        )
        self.anomaly_storage = AnomalyStorage(backend=backend("anomalies"))
        # Alerting plane: rule evaluation on the heartbeat cycle, with
        # the history store on the same backend as the rest of the
        # storage plane (the ``alerts`` collection).
        self.alert_history = AlertHistory(backend=backend("alerts"))
        self.alert_evaluator = AlertEvaluator(
            config.alerts.rules,
            metrics=self.metrics,
            anomaly_storage=self.anomaly_storage,
            history=self.alert_history,
            sinks=config.alerts.sinks,
            bus=self.bus,
            retry_policy=self.retry_policy,
            fault_plan=fault_plan,
        )
        self.log_manager = LogManager(self.bus)
        self.heartbeat_controller = HeartbeatController(
            metrics=self.metrics, fault_plan=fault_plan
        )

        # Streaming plane: two stages with a shuffle in between; both
        # quarantine poison records to stage-specific dead-letter topics.
        self.execution = config.execution
        self.parse_ctx = StreamingContext(
            num_partitions,
            metrics=self.metrics,
            retry_policy=self.retry_policy,
            dead_letter=self._quarantine_parse,
            fault_plan=fault_plan,
            execution=config.execution,
        )
        self.seq_ctx = StreamingContext(
            num_partitions,
            metrics=self.metrics,
            retry_policy=self.retry_policy,
            dead_letter=self._quarantine_sequence,
            fault_plan=fault_plan,
            execution=config.execution,
        )
        self._pattern_bv = self.parse_ctx.broadcast(PatternModel([]))
        self._sequence_bv = self.seq_ctx.broadcast(SequenceModel([]))

        # Management plane.
        self.model_controller = ModelController()
        self.model_controller.bind(
            PATTERN_MODEL,
            ModelBinding(
                context=self.parse_ctx,
                variable=self._pattern_bv,
                deserialize=PatternModel.from_dict,
                empty=lambda: PatternModel([]),
            ),
        )
        self.model_controller.bind(
            SEQUENCE_MODEL,
            ModelBinding(
                context=self.seq_ctx,
                variable=self._sequence_bv,
                deserialize=SequenceModel.from_dict,
                empty=lambda: SequenceModel([]),
            ),
        )
        self.model_manager = ModelManager(
            self.model_storage,
            self.model_controller,
            builder if builder is not None else ModelBuilder(),
        )

        self._steps = 0
        #: Latest anomaly timestamp seen — the log-time fallback clock
        #: when no parsed record has fed the heartbeat controller yet.
        self._last_anomaly_millis: Optional[int] = None
        #: Anomaly docs staged by the sinks (and final_flush) during one
        #: call, written in one batch when that call ends.
        self._staged_anomalies: List[Dict[str, Any]] = []
        #: Anomalies staged since the top of the current step, split the
        #: way StepReport reports them (counted where they are staged, so
        #: a step never reads the anomaly table back).
        self._step_stateless = 0
        self._step_sequence = 0
        #: Parsed logs routed by the parse sink, already keyed by event
        #: id; step() hands them to the sequence stage.
        self._parsed_buffer: List[StreamRecord] = []
        #: Raw line -> the event time the parse stage reported for it
        #: during the current step; the step's archive write reads it.
        self._event_times: Dict[str, Optional[int]] = {}
        # Report sections in registration order (the to_dict contract:
        # quarantine, then alerts, then any later registrations).
        self._report_sections: List[ReportSection] = []
        self.register_report_section(_QuarantineSection(self))
        self.register_report_section(self.alert_evaluator)
        self._build_graphs()

        # Restart path: a persistent database that already holds model
        # versions means this service is resuming an earlier run —
        # republish the latest models so detection continues without
        # retraining.
        if (
            self.storage_config.persistent
            and self.model_storage.names()
        ):
            self.model_manager.publish_all()
            self.flush_model_updates()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _build_graphs(self) -> None:
        self._parse_operator = ParseOperator(
            self._pattern_bv, self.tokenizer_factory, self.metrics
        )
        self._sequence_operator = SequenceOperator(
            self._sequence_bv,
            self.expiry_factor,
            self.min_expiry_millis,
            self.metrics,
        )
        parse_src = self.parse_ctx.source()
        parse_src.flat_map(self._parse_operator).sink(self._route_parsed)

        seq_src = self.seq_ctx.source()
        seq_out = seq_src.map_with_state(self._sequence_operator)
        seq_out.sink(self._sink_anomaly)
        # The stateful node's id locates detectors for checkpoint/restore.
        self._seq_state_node_id = seq_out._node.node_id

    # ------------------------------------------------------------------
    # Driver-side sinks and helpers
    # ------------------------------------------------------------------
    def _sink_anomaly(self, record: StreamRecord) -> None:
        self._stage_anomaly(record.value.to_dict())

    def _stage_anomaly(self, doc: Dict[str, Any]) -> None:
        """Stage one anomaly doc for the batched write ending this call."""
        self._staged_anomalies.append(doc)
        if doc["type"] == "unparsed_log":
            self._step_stateless += 1
        else:
            self._step_sequence += 1
        ts = doc["timestamp_millis"]
        if ts is not None and (
            self._last_anomaly_millis is None
            or ts > self._last_anomaly_millis
        ):
            self._last_anomaly_millis = ts

    def _write_staged_anomalies(self) -> List[Dict[str, Any]]:
        """Write every staged anomaly doc in one ``store_many``.

        Timestamp-less docs (an unparsed line carries no parseable
        clock) would never match any alert window, so they are stamped
        with log-time "now" — by now this call's heartbeat observations
        have advanced it — and written after the timestamped ones.
        Returns the docs in the order they were written.
        """
        staged = self._staged_anomalies
        if not staged:
            return []
        self._staged_anomalies = []
        docs = [doc for doc in staged if doc["timestamp_millis"] is not None]
        if len(docs) < len(staged):
            now = self.log_time_now()
            for doc in staged:
                if doc["timestamp_millis"] is None:
                    doc["timestamp_millis"] = now
                    docs.append(doc)
            if now is not None:
                self._last_anomaly_millis = now
        self.anomaly_storage.store_many(docs)
        return docs

    def _archive(self, records: List[StreamRecord]) -> None:
        """Archive every record of one log-manager cycle, in poll order.

        A line's event time is the ``timestamp_millis`` the parse stage
        reported for that line's text during this step.  When the stage
        reported nothing for it — the line was quarantined, or the stage
        raised before reaching it — the line is archived without an
        event time: :meth:`LogStorage.by_source` and replay still see
        it, :meth:`LogStorage.time_range` does not.
        """
        event_times = self._event_times
        self._event_times = {}
        if not records:
            return
        entries = []
        for record in records:
            raw = record.value["raw"]
            entries.append((raw, record.source, event_times.get(raw)))
        # One storage lock for the whole cycle, not one per record.
        self.log_storage.store_batch(entries)

    def _route_parsed(self, record: StreamRecord) -> None:
        """The parse stage's one sink: parsed logs are re-keyed by event
        id for the sequence stage, unparsed ones staged as anomalies.
        Either way the line's event time is noted for the archive."""
        value = record.value
        if isinstance(value, ParsedLog):
            self._event_times[value.raw] = value.timestamp_millis
            self._parsed_buffer.append(
                StreamRecord(
                    value=value,
                    key=self._event_key(value),
                    source=record.source,
                    timestamp_millis=record.timestamp_millis,
                )
            )
        else:
            self._event_times[value.logs[0]] = value.timestamp_millis
            self._stage_anomaly(value.to_dict())

    def _quarantine_parse(self, quarantined: QuarantinedRecord) -> None:
        self._dead_letter(PARSE_STAGE, quarantined)

    def _quarantine_sequence(
        self, quarantined: QuarantinedRecord
    ) -> None:
        self._dead_letter(SEQUENCE_STAGE, quarantined)

    def _dead_letter(
        self, stage: str, quarantined: QuarantinedRecord
    ) -> None:
        """Route an exhausted record to the stage's dead-letter topic."""
        payload = quarantined.to_payload()
        self.bus.produce_failed(
            stage,
            payload["value"],
            "%s: %s" % (quarantined.error_type, quarantined.error),
            key=quarantined.record.key,
            metadata={
                "stage": stage,
                "source": quarantined.record.source,
                "partition_id": quarantined.partition_id,
                "node_id": quarantined.node_id,
                "operator_kind": quarantined.kind,
                "attempts": quarantined.attempts,
                "error_type": quarantined.error_type,
            },
        )

    def _event_key(self, parsed: ParsedLog) -> Optional[str]:
        model: SequenceModel = self._sequence_bv.get_value()
        for automaton in model.automata_for_pattern(parsed.pattern_id):
            fname = automaton.id_field_for(parsed.pattern_id)
            if fname is None:
                continue
            content = parsed.fields.get(fname)
            if content is not None:
                return content
        return None

    # ------------------------------------------------------------------
    # Public control surface
    # ------------------------------------------------------------------
    def train(self, training_logs: Sequence[str]) -> BuiltModels:
        """Build models from normal-run logs and roll them out."""
        models = self.model_manager.builder.build(training_logs)
        self.model_manager.register_built(models)
        self.model_manager.publish_all()
        self.flush_model_updates()
        return models

    def flush_model_updates(self) -> None:
        """Apply queued model updates now by running empty batches."""
        self.parse_ctx.run_batch([])
        self.seq_ctx.run_batch([])

    def ingest(self, raw_logs: Iterable[str], source: str) -> int:
        """Enqueue raw lines onto the agent topic; returns the count.

        Records are keyed by source: the broker only guarantees order
        within a partition, and event logs of one source must stay in
        arrival order for sequence detection.
        """
        produced = self.bus.produce_many(
            "logs.raw",
            [{"raw": raw, "source": source} for raw in raw_logs],
            key=source,
        )
        return len(produced)

    def step(self) -> StepReport:
        """Advance one end-to-end micro-batch period."""
        self._steps += 1
        self._step_stateless = 0
        self._step_sequence = 0

        # The finally archives every polled line and writes the docs both
        # stages' sinks staged, each in one batch, even when a stage
        # raises — so no line and no anomaly is lost.
        parse_batch: List[StreamRecord] = []
        try:
            parse_batch = self.log_manager.cycle()
            parse_metrics = self.parse_ctx.run_batch(parse_batch)
            # Publish the per-worker parsers' deferred metrics; the
            # workers are idle between run_batch calls, so this races
            # with nothing.
            for worker in self.parse_ctx.workers:
                parser = getattr(worker, "_loglens_parser", None)
                if parser is not None:
                    parser.flush_metrics()

            parsed_records = self._parsed_buffer
            self._parsed_buffer = []
            for record in parsed_records:
                self.heartbeat_controller.observe(
                    record.source or "unknown", record.timestamp_millis
                )

            heartbeats: List[StreamRecord] = []
            if (
                self.heartbeats_enabled
                and self._steps % self.heartbeat_period_steps == 0
            ):
                heartbeats = self.heartbeat_controller.tick()

            seq_metrics = self.seq_ctx.run_batch(parsed_records + heartbeats)
        finally:
            try:
                self._archive(parse_batch)
            finally:
                anomaly_docs = self._write_staged_anomalies()

        # Alerting rides the heartbeat cycle: rules see every anomaly
        # this step stored, at the extrapolated log-time "now".  With no
        # rules configured this is one tuple check — nothing on the hot
        # path.
        alert_events = 0
        if (
            self.alert_evaluator.rules
            and self._steps % self.heartbeat_period_steps == 0
        ):
            alert_events = len(
                self.alert_evaluator.evaluate(self.log_time_now())
            )

        return StepReport(
            ingested=len(parse_batch),
            parsed=len(parsed_records),
            stateless_anomalies=self._step_stateless,
            sequence_anomalies=self._step_sequence,
            heartbeats=len(heartbeats),
            model_updates_applied=(
                parse_metrics.model_updates_applied
                + seq_metrics.model_updates_applied
            ),
            retries=parse_metrics.retries + seq_metrics.retries,
            quarantined=(
                parse_metrics.quarantined + seq_metrics.quarantined
            ),
            alerts=alert_events,
            anomaly_docs=anomaly_docs,
        )

    def log_time_now(self) -> Optional[int]:
        """The service's current log-time "now" (extrapolated millis).

        The maximum of every source's heartbeat-extrapolated clock —
        the same notion of time the detectors sweep on — with the
        latest stored anomaly timestamp as a floor (so alerting works
        even when only stateless anomalies flow), or ``None`` before
        any timestamped log has been observed.
        """
        best: Optional[int] = self._last_anomaly_millis
        for source in self.heartbeat_controller.sources():
            estimate = self.heartbeat_controller.estimated_time(source)
            if estimate is not None and (best is None or estimate > best):
                best = estimate
        return best

    def close(self) -> None:
        """Release execution and storage resources (idempotent).

        Shuts down both streaming contexts' execution backends (worker
        processes — serial contexts make this a no-op) and closes the
        persistent storage database if one is attached.
        After closing, another service constructed with the same
        ``sqlite:PATH`` spec resumes from everything this one persisted.
        """
        self.parse_ctx.shutdown()
        self.seq_ctx.shutdown()
        if self.storage_database is not None:
            self.storage_database.close()

    def replay_from_storage(
        self, source: str, as_source: Optional[str] = None
    ) -> int:
        """Re-ingest archived logs of ``source`` (paper, Section II-B:
        "stored logs ... can also be used for future log replaying to
        perform further analysis").

        Returns the number of lines re-enqueued; drive them with
        :meth:`step` / :meth:`run_until_drained` as usual.
        """
        raws = self.log_storage.by_source(source)
        return self.ingest(raws, source=as_source or "%s.replay" % source)

    def run_until_drained(self, max_steps: int = 10000) -> List[StepReport]:
        """Step until no input remains (plus one trailing heartbeat step)."""
        reports = []
        for _ in range(max_steps):
            report = self.step()
            reports.append(report)
            if report.ingested == 0:
                break
        return reports

    def final_flush(self) -> int:
        """Close every open event (end-of-replay); returns anomaly count.

        Equivalent to heartbeats arbitrarily far in the future; used when a
        replayed dataset ends and remaining open states must be judged.
        """
        return len(self.flush_open_events())

    def flush_open_events(self) -> List[Dict[str, Any]]:
        """:meth:`final_flush`, returning the anomaly docs it wrote.

        The anomalies take the same staged, one-batch write as a step's;
        the docs come back in write order.
        """
        try:
            for partition_id in range(self.seq_ctx.num_partitions):
                flushed = self.seq_ctx.call_partition(
                    partition_id, _partition_flush
                )
                for anomaly_dict in flushed:
                    self._stage_anomaly(anomaly_dict)
        finally:
            docs = self._write_staged_anomalies()
        return docs

    # ------------------------------------------------------------------
    # Checkpoint / recovery — Section V-A: "if a stateful Spark streaming
    # service is terminated, all the state data is lost".  A checkpoint
    # captures models, open-event state, and log-time clocks so a crashed
    # service resumes where it stopped.
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of the service's mutable state."""
        partitions: Dict[str, Any] = {}
        for partition_id in range(self.seq_ctx.num_partitions):
            snapshot = self.seq_ctx.call_partition(
                partition_id,
                partial(
                    _partition_detector_snapshot, self._seq_state_node_id
                ),
            )
            if snapshot is not None:
                partitions[str(partition_id)] = snapshot
        return {
            "num_partitions": self.seq_ctx.num_partitions,
            "steps": self._steps,
            "pattern_model": self._pattern_bv.get_value().to_dict(),
            "sequence_model": self._sequence_bv.get_value().to_dict(),
            "heartbeat": self.heartbeat_controller.snapshot(),
            "partitions": partitions,
        }

    def restore_checkpoint(self, checkpoint: Dict[str, Any]) -> None:
        """Load a :meth:`checkpoint` into this (freshly built) service.

        The service must have the same partition count as the one that
        wrote the checkpoint — event keys hash to partitions, so a
        different layout would strand open states on the wrong worker.
        """
        if checkpoint["num_partitions"] != self.seq_ctx.num_partitions:
            raise ValueError(
                "checkpoint has %d partitions; this service has %d"
                % (
                    checkpoint["num_partitions"],
                    self.seq_ctx.num_partitions,
                )
            )
        self.model_controller.update(
            PATTERN_MODEL, checkpoint["pattern_model"]
        )
        self.model_controller.update(
            SEQUENCE_MODEL, checkpoint["sequence_model"]
        )
        self.flush_model_updates()
        self.heartbeat_controller.restore_snapshot(checkpoint["heartbeat"])
        self._steps = checkpoint.get("steps", 0)
        for pid_text, snapshot in checkpoint["partitions"].items():
            # flush_model_updates() above synced the sequence model to
            # every resident worker, so the restore function reads it
            # straight from the worker's block cache.
            self.seq_ctx.call_partition(
                int(pid_text),
                partial(
                    _partition_restore_detector,
                    self._seq_state_node_id,
                    snapshot,
                    self._sequence_bv,
                    self.expiry_factor,
                    self.min_expiry_millis,
                ),
            )

    # ------------------------------------------------------------------
    def open_event_count(self) -> int:
        """In-flight events across all sequence partitions."""
        return sum(
            self.seq_ctx.call_partition(partition_id, _partition_open_events)
            for partition_id in range(self.seq_ctx.num_partitions)
        )

    # ------------------------------------------------------------------
    # Quarantine surface
    # ------------------------------------------------------------------
    def retries_total(self) -> int:
        """Operator re-executions across both streaming stages."""
        return (
            self.parse_ctx.retries_total + self.seq_ctx.retries_total
        )

    def quarantined_total(self) -> int:
        """Records quarantined across both streaming stages."""
        return (
            self.parse_ctx.quarantined_total
            + self.seq_ctx.quarantined_total
        )

    def dead_letter_depth(self) -> int:
        """Quarantined records not yet drained from dead-letter topics."""
        return self.bus.dead_letter_depth()

    def drain_dead_letters(self, max_records: int = 10000) -> List[Any]:
        """Consume pending dead-letter envelopes from every stage."""
        return self.bus.drain_dead_letters(max_records=max_records)

    # ------------------------------------------------------------------
    # The one results surface
    # ------------------------------------------------------------------
    def register_report_section(self, provider: ReportSection) -> None:
        """Add a subsystem's section to every future :meth:`report`.

        Sections render in registration order in ``report().to_dict()``
        (that ordering is pinned by a regression test); registering a
        duplicate section name is an error.
        """
        name = provider.section_name
        if any(p.section_name == name for p in self._report_sections):
            raise ValueError(
                "report section %r is already registered" % name
            )
        self._report_sections.append(provider)

    def report(self, include_metrics: bool = True) -> ServiceReport:
        """Typed snapshot of everything the service can tell you.

        Merges the historical ``stats()`` counters, one section per
        registered :class:`~repro.service.sections.ReportSection`
        provider (quarantine accounting, alerting, ...), and (unless
        ``include_metrics`` is false) the full observability snapshot
        previously returned by ``metrics_snapshot()``.
        """
        sections: Dict[str, Dict[str, Any]] = {}
        for provider in self._report_sections:
            sections[provider.section_name] = provider.report_section()
        quarantine = sections["quarantine"]
        return ServiceReport(
            steps=self._steps,
            logs_archived=self.log_storage.count(),
            anomalies=self.anomaly_storage.count(),
            open_events=self.open_event_count(),
            parse_batches=self.parse_ctx.metrics.batches,
            sequence_batches=self.seq_ctx.metrics.batches,
            model_updates=(
                self.parse_ctx.metrics.model_updates
                + self.seq_ctx.metrics.model_updates
            ),
            downtime_seconds=(
                self.parse_ctx.metrics.downtime_seconds
                + self.seq_ctx.metrics.downtime_seconds
            ),
            quarantine=QuarantineReport(
                retries=quarantine["retries"],
                quarantined=quarantine["quarantined"],
                dead_letter_depth=quarantine["dead_letter_depth"],
                dead_letter_origins=quarantine["dead_letter_origins"],
            ),
            metrics=self.metrics.to_dict() if include_metrics else None,
            sections=sections,
        )
