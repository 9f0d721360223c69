"""LogLens: a real-time log analysis system (ICDCS 2018) — reproduction.

A from-scratch implementation of the complete LogLens system: unsupervised
GROK-pattern discovery, the signature-indexed stateless log parser, the
automata-based stateful log sequence anomaly detector, and the streaming
deployment substrate (micro-batch engine, rebroadcastable models, heartbeat
controller, model management plane).

Quickstart::

    from repro import LogLens

    lens = LogLens().fit(training_logs)      # learn normal behaviour
    anomalies = lens.detect(streaming_logs)  # find what deviates

    service = lens.to_service()              # or run it as a service
    service.ingest(lines, source="app01")
    service.step()
"""

from .core import Anomaly, AnomalyType, LogLens, LogLensConfig, Severity
from .errors import (
    BroadcastError,
    LogLensError,
    OperatorError,
    QuarantinedRecordError,
    TopicNotFoundError,
)
from .faults import FaultInjected, FaultPlan, ManualClock, SystemClock
from .obs import MetricsRegistry, get_registry
from .parsing import (
    FastLogParser,
    GrokPattern,
    ParsedLog,
    PatternDiscoverer,
    PatternModel,
    TimestampDetector,
    Tokenizer,
)
from .sequence import (
    Automaton,
    IdFieldDiscovery,
    LogSequenceDetector,
    SequenceModel,
    SequenceModelLearner,
)
from .service import LogLensService, ModelBuilder, ServiceReport
from .streaming import QuarantinedRecord, RetryPolicy

__version__ = "1.0.0"

__all__ = [
    "Anomaly",
    "AnomalyType",
    "LogLens",
    "LogLensConfig",
    "Severity",
    "FastLogParser",
    "GrokPattern",
    "ParsedLog",
    "PatternDiscoverer",
    "PatternModel",
    "TimestampDetector",
    "Tokenizer",
    "Automaton",
    "IdFieldDiscovery",
    "LogSequenceDetector",
    "SequenceModel",
    "SequenceModelLearner",
    "LogLensService",
    "ModelBuilder",
    "ServiceReport",
    "LogLensError",
    "OperatorError",
    "QuarantinedRecordError",
    "TopicNotFoundError",
    "BroadcastError",
    "FaultInjected",
    "FaultPlan",
    "ManualClock",
    "SystemClock",
    "QuarantinedRecord",
    "RetryPolicy",
    "__version__",
]
