"""The log manager (paper, Section II-B).

Receives logs from agents, controls the incoming rate, identifies log
sources, and hands the flow straight to the parser.  Agents produce each
raw line under its source as the bus key; one cycle reads the polled
keys and lines as per-partition lists and builds exactly one record per
line.  Rate control is a token bucket refilled per poll cycle, so a
bursty agent cannot starve the parsing stage.  The paper forwards to
the parser over a second Kafka topic because the two run as separately
deployed services; in one process that hop would only copy every line,
so :meth:`LogManager.cycle` returns the cycle's records to its caller.

The manager does not archive.  A line's event time comes from the
parser, which detects its timestamps anyway, so
:meth:`~repro.service.loglens_service.LogLensService.step` archives the
cycle's records once the parse stage has run — no line is tokenized or
timestamp-detected twice.
"""

from __future__ import annotations

from typing import Dict, List

from ..streaming.records import StreamRecord, build_record
from .bus import Consumer, MessageBus

__all__ = ["LogManager"]


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
        :meth:`cycle`; the surplus stays on the bus (back-pressure), where
        the ``bus.consumer_lag`` gauges count it.
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
        #: Sources seen so far, in first-seen order (a dict: O(1) lookup).
        self._known_sources: Dict[str, None] = {}

    # ------------------------------------------------------------------
    def cycle(self) -> List[StreamRecord]:
        """One manager period: poll, identify sources, hand over.

        Returns one record per forwarded line, in poll order: the raw
        line as ``value``, keyed by its source.  The source is the bus
        key the line was produced under, or ``"unknown"`` for a line
        produced without one.
        """
        slices = self._consumer.poll_slices(self.max_rate_per_cycle)
        build = build_record
        records: List[StreamRecord] = []
        for keys, lines in slices:
            sources = [key or "unknown" for key in keys]
            # First-seen order: update() keeps a known source in place.
            self._known_sources.update(dict.fromkeys(sources))
            records += [
                build(raw, source, source, None, False)
                for source, raw in zip(sources, lines)
            ]
        return records

    def sources(self) -> List[str]:
        """All sources seen so far, in first-seen order."""
        return list(self._known_sources)
