"""Rule-driven alerting: the layer that closes detection → notification.

LogLens is pitched as an operational real-time analysis system, but
detection alone leaves anomalies parked in storage.  This package adds
the control loop on top: declarative :class:`AlertRule` objects
(configured programmatically or through ``[[alerts.rules]]`` tables in
a ``ServiceConfig`` file) count the anomalies in a sliding log-time
window, are evaluated on the service's heartbeat cycle by an
:class:`AlertEvaluator`, walk an OK → FIRING → RESOLVED → OK lifecycle
that pages once per episode, are recorded in an append-only
:class:`AlertHistory` (a keyed document table in memory or SQLite,
like the anomaly store), and are delivered
through pluggable :class:`AlertSink` implementations with retry and
dead-lettering.  See ``docs/ALERTING.md``.
"""

from .evaluator import ALERTS_TOPIC, AlertEvaluator
from .history import AlertHistory
from .rules import (
    CONDITIONS,
    FIRING,
    OK,
    RESOLVED,
    AlertEvent,
    AlertRule,
)
from .sinks import (
    AlertSink,
    CollectingSink,
    LogSink,
    SinkSpec,
    WebhookSink,
    build_sink,
    redact_url,
)

__all__ = [
    "ALERTS_TOPIC",
    "AlertEvaluator",
    "AlertHistory",
    "AlertEvent",
    "AlertRule",
    "AlertSink",
    "CONDITIONS",
    "CollectingSink",
    "FIRING",
    "LogSink",
    "OK",
    "RESOLVED",
    "SinkSpec",
    "WebhookSink",
    "build_sink",
    "redact_url",
]
