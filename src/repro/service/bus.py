"""In-memory message broker (the Kafka stand-in).

LogLens uses Kafka for shipping logs and for communication among
components (paper, Section II-B).  This broker reproduces the surface the
system relies on: named topics with partitions, append-only partition
logs, offset-tracking consumers with consumer groups, and keyed produce
for co-partitioning.  Everything is process-local and thread-safe.

**Batched hot path**: :meth:`MessageBus.produce_many` appends a whole
batch under a single lock acquisition, and :meth:`Consumer.poll`
drains one under a single acquisition on the consume side;
:meth:`MessageBus.produce` is a thin wrapper over the same locked
helper, so batch and single-record produce interleave with identical
ordering semantics.  Metric handles are resolved once per topic/group
and cached — the broker never does a registry lookup per record.

**Dead-letter topics**: records that exhaust the streaming engine's
retry budget are quarantined via :meth:`MessageBus.produce_failed`, which
wraps the value in a failure envelope and appends it to the origin's
dead-letter topic (``<origin>.deadletter``, auto-created).  Operators
inspect and recover them with :meth:`MessageBus.drain_dead_letters`; the
``bus.dead_letter_depth`` gauge tracks the backlog.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TopicNotFoundError
from ..obs import MetricsRegistry, get_registry

__all__ = [
    "Message",
    "MessageBus",
    "Consumer",
    "dead_letter_topic",
    "DEAD_LETTER_SUFFIX",
    "DEAD_LETTER_GROUP",
]

#: Suffix appended to an origin topic to name its dead-letter topic.
DEAD_LETTER_SUFFIX = ".deadletter"

#: Consumer group used by ``drain_dead_letters`` (depth = end − committed).
DEAD_LETTER_GROUP = "__dead-letter-drain__"


def dead_letter_topic(origin: str) -> str:
    """The dead-letter topic name for an origin topic/stage."""
    return origin + DEAD_LETTER_SUFFIX


@dataclass(frozen=True)
class Message:
    """One record on a topic partition."""

    topic: str
    partition: int
    offset: int
    key: Optional[str]
    value: Any


class _Topic:
    def __init__(self, name: str, partitions: int) -> None:
        self.name = name
        self.partitions: List[List[Message]] = [[] for _ in range(partitions)]
        #: Records ever appended — drives keyless round-robin without
        #: summing partition lengths per produce.
        self.total_records = 0

    @property
    def partition_count(self) -> int:
        return len(self.partitions)


class MessageBus:
    """Topic registry + produce path."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._topics: Dict[str, _Topic] = {}
        self._lock = threading.RLock()
        # (group, topic, partition) -> committed offset
        self._group_offsets: Dict[Tuple[str, str, int], int] = {}
        self._metrics = metrics if metrics is not None else get_registry()
        # Cached metric handles (registry lookups are dict-plus-lock
        # operations; the hot path resolves each label set once).
        self._c_produced: Dict[str, Any] = {}
        self._c_consumed: Dict[Tuple[str, str], Any] = {}
        self._c_dead_lettered: Dict[str, Any] = {}
        self._g_lag: Dict[Tuple[str, str, int], Any] = {}
        self._g_dl_depth: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def create_topic(self, name: str, partitions: int = 1) -> None:
        """Create a topic; re-creating an existing topic is an error."""
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        with self._lock:
            if name in self._topics:
                raise ValueError("topic %r already exists" % name)
            self._topics[name] = _Topic(name, partitions)

    def ensure_topic(self, name: str, partitions: int = 1) -> None:
        """Create the topic only if absent (idempotent setup)."""
        with self._lock:
            if name not in self._topics:
                self._topics[name] = _Topic(name, partitions)

    def topics(self) -> List[str]:
        with self._lock:
            return sorted(self._topics)

    # ------------------------------------------------------------------
    def produce(
        self, topic: str, value: Any, key: Optional[str] = None
    ) -> Message:
        """Append a record; keyed records land on a stable partition."""
        with self._lock:
            t = self._get_topic(topic)
            message = self._append_locked(t, value, key)
            self._produced_counter(topic).inc()
            return message

    def produce_many(
        self, topic: str, values: List[Any], key: Optional[str] = None
    ) -> List[Message]:
        """Append a batch under one lock acquisition (shared key).

        Ordering is identical to calling :meth:`produce` per value.
        """
        with self._lock:
            t = self._get_topic(topic)
            out = [self._append_locked(t, value, key) for value in values]
            if out:
                self._produced_counter(topic).inc(len(out))
            return out

    def _append_locked(
        self, t: _Topic, value: Any, key: Optional[str]
    ) -> Message:
        if key is None:
            # Round-robin by total record count for keyless produce.
            partition = t.total_records % t.partition_count
        else:
            partition = zlib.crc32(key.encode("utf-8")) % t.partition_count
        log = t.partitions[partition]
        message = Message(
            topic=t.name,
            partition=partition,
            offset=len(log),
            key=key,
            value=value,
        )
        log.append(message)
        t.total_records += 1
        return message

    # ------------------------------------------------------------------
    def consumer(self, topic: str, group: str) -> "Consumer":
        """A consumer for ``topic`` within consumer-group ``group``.

        Consumers of the same group share committed offsets: a record is
        delivered to one group only once (per partition).
        """
        with self._lock:
            self._get_topic(topic)  # validate existence
        return Consumer(self, topic, group)

    def end_offsets(self, topic: str) -> List[int]:
        with self._lock:
            t = self._get_topic(topic)
            return [len(p) for p in t.partitions]

    def _get_topic(self, name: str) -> _Topic:
        topic = self._topics.get(name)
        if topic is None:
            raise TopicNotFoundError(name, known=list(self._topics))
        return topic

    # ------------------------------------------------------------------
    # Cached metric handles
    # ------------------------------------------------------------------
    def _produced_counter(self, topic: str):
        counter = self._c_produced.get(topic)
        if counter is None:
            counter = self._metrics.counter("bus.produced", topic=topic)
            self._c_produced[topic] = counter
        return counter

    def _consumed_counter(self, topic: str, group: str):
        counter = self._c_consumed.get((topic, group))
        if counter is None:
            counter = self._metrics.counter(
                "bus.consumed", topic=topic, group=group
            )
            self._c_consumed[(topic, group)] = counter
        return counter

    def _lag_gauge(self, topic: str, group: str, partition: int):
        gauge = self._g_lag.get((topic, group, partition))
        if gauge is None:
            gauge = self._metrics.gauge(
                "bus.consumer_lag",
                topic=topic,
                group=group,
                partition=str(partition),
            )
            self._g_lag[(topic, group, partition)] = gauge
        return gauge

    # ------------------------------------------------------------------
    # Dead-letter topics (quarantine transport)
    # ------------------------------------------------------------------
    def produce_failed(
        self,
        origin_topic: str,
        value: Any,
        error: Any,
        key: Optional[str] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Message:
        """Quarantine a failed record onto ``origin_topic``'s dead-letter
        topic (created on first use).

        ``error`` may be an exception instance (its type name is
        captured) or any printable description.  The produced value is a
        failure envelope: ``{"origin", "value", "error", "error_type",
        "metadata"}``.  Keyed records keep per-key ordering in the
        dead-letter topic too.
        """
        if isinstance(error, BaseException):
            error_text = str(error) or repr(error)
            error_type: Optional[str] = type(error).__name__
        else:
            error_text = str(error)
            error_type = None
        envelope = {
            "origin": origin_topic,
            "value": value,
            "error": error_text,
            "error_type": error_type,
            "metadata": dict(metadata or {}),
        }
        topic = dead_letter_topic(origin_topic)
        with self._lock:
            self.ensure_topic(topic)
            message = self.produce(topic, envelope, key=key)
            counter = self._c_dead_lettered.get(origin_topic)
            if counter is None:
                counter = self._metrics.counter(
                    "bus.dead_lettered", topic=origin_topic
                )
                self._c_dead_lettered[origin_topic] = counter
            counter.inc()
            self._refresh_dead_letter_gauge(origin_topic)
        return message

    def dead_letter_topics(self) -> List[str]:
        """Origin names that currently have a dead-letter topic."""
        with self._lock:
            return sorted(
                name[: -len(DEAD_LETTER_SUFFIX)]
                for name in self._topics
                if name.endswith(DEAD_LETTER_SUFFIX)
            )

    def dead_letter_depth(self, origin_topic: Optional[str] = None) -> int:
        """Quarantined records not yet drained (one origin, or all)."""
        with self._lock:
            origins = (
                [origin_topic]
                if origin_topic is not None
                else self.dead_letter_topics()
            )
            return sum(self._dl_depth_locked(origin) for origin in origins)

    def _dl_depth_locked(self, origin: str) -> int:
        t = self._topics.get(dead_letter_topic(origin))
        if t is None:
            return 0
        return sum(
            len(t.partitions[p])
            - self._group_offsets.get((DEAD_LETTER_GROUP, t.name, p), 0)
            for p in range(t.partition_count)
        )

    def drain_dead_letters(
        self,
        origin_topic: Optional[str] = None,
        max_records: int = 10000,
    ) -> List[Message]:
        """Consume pending dead-letter envelopes (one origin, or all).

        Draining advances the shared :data:`DEAD_LETTER_GROUP` offsets,
        so each quarantined record is handed out exactly once — the
        hand-off point for reprocessing or archival tooling.  Each
        origin is drained under a single lock acquisition.
        """
        with self._lock:
            origins = (
                [origin_topic]
                if origin_topic is not None
                else self.dead_letter_topics()
            )
            out: List[Message] = []
            for origin in origins:
                topic = dead_letter_topic(origin)
                if topic not in self._topics:
                    continue
                out.extend(self._poll(topic, DEAD_LETTER_GROUP, max_records))
                self._refresh_dead_letter_gauge(origin)
            return out

    def _refresh_dead_letter_gauge(self, origin_topic: str) -> None:
        with self._lock:
            gauge = self._g_dl_depth.get(origin_topic)
            if gauge is None:
                gauge = self._metrics.gauge(
                    "bus.dead_letter_depth", topic=origin_topic
                )
                self._g_dl_depth[origin_topic] = gauge
            gauge.set(self._dl_depth_locked(origin_topic))

    # ------------------------------------------------------------------
    def _poll(
        self, topic: str, group: str, max_records: int
    ) -> List[Message]:
        with self._lock:
            t = self._get_topic(topic)
            out: List[Message] = []
            for partition in range(t.partition_count):
                key = (group, topic, partition)
                offset = self._group_offsets.get(key, 0)
                log = t.partitions[partition]
                take = log[offset:offset + max(0, max_records - len(out))]
                out.extend(take)
                new_offset = offset + len(take)
                self._group_offsets[key] = new_offset
                # Per-topic-partition consumer lag, refreshed on poll.
                self._lag_gauge(topic, group, partition).set(
                    len(log) - new_offset
                )
                if len(out) >= max_records:
                    break
            if out:
                self._consumed_counter(topic, group).inc(len(out))
            return out

    def committed(self, topic: str, group: str) -> List[int]:
        with self._lock:
            t = self._get_topic(topic)
            return [
                self._group_offsets.get((group, topic, p), 0)
                for p in range(t.partition_count)
            ]


class Consumer:
    """Offset-tracking consumer bound to a topic and a consumer group."""

    def __init__(self, bus: MessageBus, topic: str, group: str) -> None:
        self._bus = bus
        self.topic = topic
        self.group = group

    def poll(self, max_records: int = 1000) -> List[Message]:
        """Fetch up to ``max_records`` new records and advance offsets."""
        return self._bus._poll(self.topic, self.group, max_records)

    def lag(self) -> int:
        """Records produced but not yet consumed by this group."""
        ends = self._bus.end_offsets(self.topic)
        committed = self._bus.committed(self.topic, self.group)
        return sum(e - c for e, c in zip(ends, committed))
