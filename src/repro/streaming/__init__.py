"""Micro-batch streaming substrate (the paper's enhanced Spark).

Provides the execution model LogLens deploys on: micro-batch scheduling
over partitioned workers (:class:`~repro.streaming.engine.StreamingContext`),
broadcast variables with zero-downtime rebroadcasting
(:mod:`repro.streaming.broadcast`), per-partition keyed state with
whole-map exposure (:mod:`repro.streaming.state`), and heartbeat-aware
partitioning (:mod:`repro.streaming.partitioner`).
"""

from .broadcast import BlockManager, BroadcastManager, BroadcastVariable
from .execution import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
)
from .engine import (
    BatchMetrics,
    CollectedRecords,
    Collector,
    DStream,
    EngineMetrics,
    StreamingContext,
    WorkerContext,
)
from .partitioner import partition_records
from .records import StreamRecord, heartbeat_record
from .retry import QuarantinedRecord, RetryPolicy
from .state import StateMap

__all__ = [
    "BlockManager",
    "BroadcastManager",
    "BroadcastVariable",
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "BatchMetrics",
    "CollectedRecords",
    "Collector",
    "DStream",
    "EngineMetrics",
    "QuarantinedRecord",
    "RetryPolicy",
    "StreamingContext",
    "WorkerContext",
    "partition_records",
    "StreamRecord",
    "heartbeat_record",
    "StateMap",
]
