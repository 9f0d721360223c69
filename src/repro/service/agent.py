"""Log collection agents (paper, Section II-B and VI).

An agent is the daemon that collects logs at a source and ships them to
the log manager.  Two implementations:

* :class:`ReplayAgent` — the paper's evaluation agent: "emulates the log
  streaming behavior" by replaying an in-memory dataset in
  rate-controlled chunks.
* :class:`FileTailAgent` — a production-style agent following a log file
  on disk, shipping lines appended since the last poll (a minimal
  filebeat).

Both produce each raw line under their source as the bus key, so the
log manager can identify the source and per-source ordering survives
the bus.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Union

from .bus import MessageBus

__all__ = ["ReplayAgent", "FileTailAgent"]


class ReplayAgent:
    """Replays raw log lines onto a bus topic in fixed-size steps.

    Parameters
    ----------
    bus / topic:
        Destination; the topic must exist.
    source:
        Source name every line is shipped under (the bus key).
    logs:
        The raw lines to replay.
    logs_per_step:
        How many lines one :meth:`step` ships (the emulated stream rate:
        one step ≈ one agent flush interval).
    """

    def __init__(
        self,
        bus: MessageBus,
        topic: str,
        source: str,
        logs: Iterable[str],
        logs_per_step: int = 100,
    ) -> None:
        if logs_per_step < 1:
            raise ValueError("logs_per_step must be >= 1")
        self.bus = bus
        self.topic = topic
        self.source = source
        self.logs_per_step = logs_per_step
        self._iterator: Iterator[str] = iter(logs)
        self._exhausted = False
        self.shipped = 0

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True once every line has been shipped."""
        return self._exhausted

    def step(self) -> int:
        """Ship the next chunk; returns how many lines were shipped."""
        chunk = list(islice(self._iterator, self.logs_per_step))
        if len(chunk) < self.logs_per_step:
            self._exhausted = True
        # Keyed by source: the broker only orders within a partition,
        # and one source's logs must keep their arrival order.
        shipped = self.bus.produce_many(self.topic, chunk, key=self.source)
        self.shipped += shipped
        return shipped

    def drain(self) -> int:
        """Ship everything that remains; returns the total shipped now."""
        total = 0
        while not self._exhausted:
            shipped = self.step()
            total += shipped
            if shipped == 0:
                break
        return total


class FileTailAgent:
    """Follow a log file, shipping newly appended lines on each poll.

    Parameters
    ----------
    bus / topic / source:
        As for :class:`ReplayAgent`.
    path:
        The log file to follow; it may not exist yet (polls are empty
        until it appears).
    from_beginning:
        Ship the file's existing content on the first poll (default) or
        start at the current end like ``tail -f`` when ``False``.
    """

    def __init__(
        self,
        bus: MessageBus,
        topic: str,
        source: str,
        path: Union[str, Path],
        from_beginning: bool = True,
    ) -> None:
        self.bus = bus
        self.topic = topic
        self.source = source
        self.path = Path(path)
        self.shipped = 0
        self._offset = 0
        if not from_beginning and self.path.exists():
            self._offset = self.path.stat().st_size

    def poll(self) -> int:
        """Ship lines appended since the last poll; returns the count.

        Only complete (newline-terminated) lines are shipped; a partial
        trailing line stays buffered in the file until its newline
        arrives.  A truncated file (rotation) restarts from offset zero.
        """
        if not self.path.exists():
            return 0
        size = self.path.stat().st_size
        if size < self._offset:
            self._offset = 0  # rotation/truncation
        if size == self._offset:
            return 0
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        last_newline = chunk.rfind(b"\n")
        if last_newline < 0:
            return 0
        complete = chunk[: last_newline + 1]
        self._offset += len(complete)
        lines = [
            raw_line
            for raw_line in complete.decode("utf-8", "replace").splitlines()
            if raw_line.strip()
        ]
        shipped = self.bus.produce_many(self.topic, lines, key=self.source)
        self.shipped += shipped
        return shipped
