"""Record types flowing through the streaming engine.

A :class:`StreamRecord` wraps one payload (a raw log line, a parsed log, an
anomaly...) with routing metadata.  Heartbeat messages travel **in the same
data channel** as ordinary records, tagged with ``is_heartbeat`` — exactly
the design of paper Section V-B, where a specially-tagged message triggers
the custom partitioner to duplicate it to every partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["StreamRecord", "build_record", "heartbeat_record"]


@dataclass(frozen=True)
class StreamRecord:
    """One record in a micro-batch.

    Attributes
    ----------
    value:
        The payload.
    key:
        Partitioning key; ``None`` routes to partition 0.
    source:
        Originating log source (agent) name.
    timestamp_millis:
        Event (log) time when known.
    is_heartbeat:
        True for heartbeat-controller messages; such records are broadcast
        to every partition instead of hashed to one.
    """

    value: Any
    key: Optional[str] = None
    source: Optional[str] = None
    timestamp_millis: Optional[int] = None
    is_heartbeat: bool = False


def build_record(
    value: Any,
    key: Optional[str],
    source: Optional[str],
    timestamp_millis: Optional[int],
    is_heartbeat: bool,
) -> StreamRecord:
    """Construct a :class:`StreamRecord` bypassing dataclass ``__init__``.

    The frozen dataclass pays one ``object.__setattr__`` per field; on
    the codec's decode hot path (every record of every cross-process
    batch) writing ``__dict__`` directly is ~3x cheaper and produces an
    identical instance.
    """
    record = StreamRecord.__new__(StreamRecord)
    # The frozen-dataclass ``__setattr__`` also rejects replacing
    # ``__dict__`` wholesale; mutating it in place is allowed, and plain
    # stores beat a ``dict.update`` call with its intermediate kwargs.
    fields = record.__dict__
    fields["value"] = value
    fields["key"] = key
    fields["source"] = source
    fields["timestamp_millis"] = timestamp_millis
    fields["is_heartbeat"] = is_heartbeat
    return record


def heartbeat_record(
    source: Optional[str], timestamp_millis: int
) -> StreamRecord:
    """Build a heartbeat record carrying extrapolated log time."""
    return StreamRecord(
        value=None,
        key=None,
        source=source,
        timestamp_millis=timestamp_millis,
        is_heartbeat=True,
    )
