"""The log manager (paper, Section II-B).

Receives logs from agents, controls the incoming rate, identifies log
sources, and hands the flow straight to the parser.  Rate control is a
token bucket refilled per poll cycle, so a bursty agent cannot starve
the parsing stage.  The paper forwards to the parser over a second Kafka
topic because the two run as separately deployed services; in one
process that hop would only copy every line, so :meth:`LogManager.cycle`
returns the cycle's records to its caller.

The manager does not archive.  A line's event time comes from the
parser, which detects its timestamps anyway, so
:meth:`~repro.service.loglens_service.LogLensService.step` archives the
cycle's records once the parse stage has run — no line is tokenized or
timestamp-detected twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..streaming.records import StreamRecord
from .bus import Consumer, MessageBus

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
        in_topic: str = "logs.raw",
        max_rate_per_cycle: int = 10000,
    ) -> None:
        if max_rate_per_cycle < 1:
            raise ValueError("max_rate_per_cycle must be >= 1")
        self.bus = bus
        self.in_topic = in_topic
        self.max_rate_per_cycle = max_rate_per_cycle
        self._consumer: Consumer = bus.consumer(in_topic, group="log-manager")
        self.stats = LogManagerStats()
        self._known_sources: List[str] = []

    # ------------------------------------------------------------------
    def cycle(self) -> List[StreamRecord]:
        """One manager period: poll, identify sources, hand over.

        Returns one record per forwarded log, in poll order: the bus
        payload untouched as ``value``, keyed by the identified source.
        """
        messages = self._consumer.poll(max_records=self.max_rate_per_cycle)
        self.stats.received += len(messages)
        self.stats.deferred = self._consumer.lag()
        records = []
        for message in messages:
            payload = message.value
            source = self._identify_source(payload)
            records.append(
                StreamRecord(value=payload, key=source, source=source)
            )
        self.stats.forwarded += len(records)
        return records

    # ------------------------------------------------------------------
    def _identify_source(self, payload: Dict) -> str:
        source = payload.get("source") or "unknown"
        if source not in self._known_sources:
            self._known_sources.append(source)
        return source

    def sources(self) -> List[str]:
        """All sources seen so far, in first-seen order."""
        return list(self._known_sources)
