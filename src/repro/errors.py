"""The exception surface of the LogLens reproduction.

Errors are API: operators of an always-on service act on exception types
and their payloads, not on string matching.  Every error the engine, the
message bus, or the fault-tolerance layer raises derives from
:class:`LogLensError`, so ``except LogLensError`` catches exactly the
failures this system defines while letting genuine bugs surface.

Where an error replaces a builtin previously raised (``KeyError`` from
the bus, ``ValueError`` from config validation), the new class *also*
subclasses that builtin, so existing ``except KeyError`` call sites keep
working across the transition.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

__all__ = [
    "LogLensError",
    "OperatorError",
    "QuarantinedRecordError",
    "TopicNotFoundError",
    "BroadcastError",
    "IngestError",
    "ExecutionError",
    "AlertDeliveryError",
    "ConfigFileError",
    "StorageLayoutError",
]


class LogLensError(Exception):
    """Base class for every error raised by the LogLens reproduction."""


class AlertDeliveryError(LogLensError):
    """One alert-sink delivery attempt failed.

    Raised by sinks (e.g. a webhook POST that errored or returned an
    HTTP failure status); the alert evaluator retries per its
    :class:`~repro.streaming.retry.RetryPolicy` and dead-letters the
    event when the budget is exhausted.
    """


class ConfigFileError(LogLensError, ValueError):
    """A declarative service-config file failed to parse or validate.

    The message names the offending file, section, and — for unknown
    keys — the valid alternatives, so the stack trace is a complete
    fix-it hint.  Subclasses ``ValueError`` so generic config
    validation handlers keep working.
    """


class StorageLayoutError(LogLensError):
    """A SQLite database holds a table this version cannot use.

    Raised when a store opens a file whose ``table`` has other columns
    than the store's fixed layout, or that still carries the
    ``_store_meta`` table of the earlier schemaless layout.  Nothing is
    appended to the refused table, and a file with ``_store_meta`` is
    left untouched.
    """

    def __init__(self, path: str, table: str) -> None:
        super().__init__(
            "%s: table %r is from a storage layout this version does "
            "not use; point the service at a new database file"
            % (path, table)
        )
        self.path = path
        self.table = table


class IngestError(LogLensError):
    """A network ingestion operation failed permanently.

    Raised by the sync :class:`~repro.ingest.client.IngestClient` when a
    batch could not be delivered within its retry budget, and by the
    server-side helpers on unrecoverable protocol violations.
    """


class ExecutionError(LogLensError):
    """An execution backend failed outside any single operator call.

    Raised by the process backend when a worker process dies, a message
    cannot cross the pipe (unpicklable operator or reply), or work is
    submitted after shutdown.
    """


class OperatorError(LogLensError):
    """An operator invocation failed (one attempt, one record).

    Carries enough metadata to locate the failure without parsing the
    message: the operator graph node, its kind, the partition it ran on,
    and how many attempts have been made so far.
    """

    def __init__(
        self,
        message: str,
        *,
        node_id: Optional[int] = None,
        kind: Optional[str] = None,
        partition_id: Optional[int] = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.node_id = node_id
        self.kind = kind
        self.partition_id = partition_id
        self.attempts = attempts

    def __reduce__(self):
        # Keyword-only constructor: the default exception reduction
        # (``cls(*args)``) would drop the metadata, which must survive
        # the pipe back from process-backend workers.
        return (
            _rebuild_operator_error,
            (
                type(self),
                self.args[0] if self.args else "",
                {
                    "node_id": self.node_id,
                    "kind": self.kind,
                    "partition_id": self.partition_id,
                    "attempts": self.attempts,
                },
            ),
        )


class QuarantinedRecordError(OperatorError):
    """A record exhausted its retry budget in a context with no
    ``dead_letter`` sink to quarantine it to.

    A context with a sink routes the record there instead and the batch
    continues.  ``record`` is the poison record the failing operator
    received.
    """

    def __init__(
        self,
        message: str,
        *,
        record: Any = None,
        node_id: Optional[int] = None,
        kind: Optional[str] = None,
        partition_id: Optional[int] = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(
            message,
            node_id=node_id,
            kind=kind,
            partition_id=partition_id,
            attempts=attempts,
        )
        self.record = record

    def __reduce__(self):
        return (
            _rebuild_operator_error,
            (
                type(self),
                self.args[0] if self.args else "",
                {
                    "record": self.record,
                    "node_id": self.node_id,
                    "kind": self.kind,
                    "partition_id": self.partition_id,
                    "attempts": self.attempts,
                },
            ),
        )


def _rebuild_operator_error(cls, message, kwargs):
    """Pickle helper for the keyword-only operator error constructors."""
    return cls(message, **kwargs)


class TopicNotFoundError(LogLensError, KeyError):
    """A bus operation referenced a topic that does not exist.

    The message lists every known topic so an operator reading a log line
    can immediately spot a misspelling or a missing ``ensure_topic``.
    """

    def __init__(self, topic: str, known: Sequence[str] = ()) -> None:
        self.topic = topic
        self.known_topics: List[str] = sorted(known)
        if self.known_topics:
            detail = "known topics: %s" % ", ".join(self.known_topics)
        else:
            detail = "no topics exist yet"
        super().__init__("unknown topic %r (%s)" % (topic, detail))


class BroadcastError(LogLensError, KeyError):
    """A broadcast operation referenced an unknown broadcast id."""

    def __init__(self, bv_id: int) -> None:
        self.bv_id = bv_id
        super().__init__("unknown broadcast id %d" % bv_id)
