"""The log manager (paper, Section II-B).

Receives logs from agents, controls the incoming rate, identifies log
sources, archives every line into log storage, and hands the flow to the
parser.  Rate control is a token bucket refilled per poll cycle, so a
bursty agent cannot starve the parsing stage.  The paper forwards to the
parser over a second Kafka topic because the two run as separately
deployed services; in one process that hop would only copy every line,
so :meth:`LogManager.cycle` returns the cycle's records to its caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..parsing.timestamps import TimestampDetector
from ..streaming.records import StreamRecord
from .bus import Consumer, MessageBus
from .storage import LogStorage

__all__ = ["LogManagerStats", "LogManager"]


@dataclass
class LogManagerStats:
    received: int = 0
    forwarded: int = 0
    deferred: int = 0


class LogManager:
    """Bridge between the agent topic and the parse stage.

    Parameters
    ----------
    bus:
        The message bus; the input topic must exist.
    log_storage:
        Archive for all received lines.
    in_topic:
        The agent topic to poll.
    max_rate_per_cycle:
        Token-bucket capacity: at most this many logs are forwarded per
        :meth:`cycle`; the surplus stays on the bus (back-pressure) and is
        counted as deferred.
    """

    def __init__(
        self,
        bus: MessageBus,
        log_storage: LogStorage,
        in_topic: str = "logs.raw",
        max_rate_per_cycle: int = 10000,
    ) -> None:
        if max_rate_per_cycle < 1:
            raise ValueError("max_rate_per_cycle must be >= 1")
        self.bus = bus
        self.log_storage = log_storage
        self.in_topic = in_topic
        self.max_rate_per_cycle = max_rate_per_cycle
        self._consumer: Consumer = bus.consumer(in_topic, group="log-manager")
        self.stats = LogManagerStats()
        self._known_sources: List[str] = []
        #: Archived logs carry event time so time-windowed model rebuilds
        #: ("last seven days") can slice the archive.  ``None`` stores no
        #: event time.  The service swaps in its tokenizer's detector, so
        #: the archive and the parser share one set of formats.
        self.timestamp_detector: Optional[TimestampDetector] = (
            TimestampDetector()
        )

    # ------------------------------------------------------------------
    def cycle(self) -> List[StreamRecord]:
        """One manager period: poll, identify, archive, hand over.

        Returns one record per forwarded log, in poll order: the bus
        payload untouched as ``value``, keyed by the identified source.
        Every line is archived before this returns.
        """
        messages = self._consumer.poll(max_records=self.max_rate_per_cycle)
        self.stats.received += len(messages)
        self.stats.deferred = self._consumer.lag()
        entries = []
        records = []
        for message in messages:
            payload = message.value
            raw = payload["raw"]
            source = self._identify_source(payload)
            entries.append((raw, source, self._event_time(raw)))
            records.append(
                StreamRecord(value=payload, key=source, source=source)
            )
        if entries:
            # One storage lock for the whole cycle, not one per record.
            self.log_storage.store_batch(entries)
        self.stats.forwarded += len(records)
        return records

    def drain(self) -> int:
        """Run cycles until the input topic is empty; returns the count."""
        total = 0
        while True:
            forwarded = len(self.cycle())
            total += forwarded
            if forwarded == 0:
                break
        return total

    # ------------------------------------------------------------------
    def _event_time(self, raw: str) -> Optional[int]:
        """Event time from the first timestamp near the line's start."""
        detector = self.timestamp_detector
        if detector is None:
            return None
        tokens = raw.split()
        for start in range(min(3, len(tokens))):
            match = detector.identify(tokens, start)
            if match is not None:
                return match.epoch_millis
        return None

    def _identify_source(self, payload: Dict) -> str:
        source = payload.get("source") or "unknown"
        if source not in self._known_sources:
            self._known_sources.append(source)
        return source

    def sources(self) -> List[str]:
        """All sources seen so far, in first-seen order."""
        return list(self._known_sources)
