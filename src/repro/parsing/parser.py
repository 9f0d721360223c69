"""The stateless fast log parser (paper, Section III-B).

:class:`FastLogParser` combines the preprocessing tokenizer, the discovered
pattern set, and the signature index into LogLens' exemplary *stateless*
anomaly detector: every incoming log either parses into structured fields
under exactly one pattern, or is reported as an :class:`~repro.core.anomaly.
Anomaly` of type ``UNPARSED_LOG``.

The parser is deliberately a pure function of its model — streaming workers
each hold a broadcast copy, and a model update simply swaps the model for a
fresh one (Section V-A).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..core.anomaly import Anomaly, AnomalyType, Severity
from ..obs import MetricsRegistry, get_registry
from .datatypes import DatatypeRegistry, DEFAULT_REGISTRY
from .grok import GrokPattern
from .index import PatternIndex
from .tokenizer import ParseTally, TokenizedLog, Tokenizer

__all__ = ["ParsedLog", "PatternModel", "FastLogParser"]


@dataclass
class ParsedLog:
    """A successfully parsed log: the structured output of the parser."""

    raw: str
    pattern_id: int
    fields: Dict[str, str]
    timestamp_millis: Optional[int] = None
    source: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The JSON parsing output the paper shows in Section III."""
        return dict(self.fields)

    def to_document(self) -> Dict[str, Any]:
        """Full serialisation (used by state checkpoints and the CLI)."""
        return {
            "raw": self.raw,
            "pattern_id": self.pattern_id,
            "fields": dict(self.fields),
            "timestamp_millis": self.timestamp_millis,
            "source": self.source,
        }

    @classmethod
    def from_document(cls, doc: Dict[str, Any]) -> "ParsedLog":
        """Inverse of :meth:`to_document`."""
        return cls(
            raw=doc["raw"],
            pattern_id=doc["pattern_id"],
            fields=dict(doc["fields"]),
            timestamp_millis=doc.get("timestamp_millis"),
            source=doc.get("source"),
        )


class PatternModel:
    """A versioned, serialisable set of GROK patterns.

    This is the "log-pattern model" stored in model storage and broadcast
    to parser workers.  Serialisation keeps pattern ids stable so the
    sequence model's references survive round-trips.
    """

    def __init__(
        self,
        patterns: Sequence[GrokPattern],
        version: int = 1,
        registry: Optional[DatatypeRegistry] = None,
    ) -> None:
        self.patterns: List[GrokPattern] = list(patterns)
        self.version = version
        self.registry = registry if registry is not None else DEFAULT_REGISTRY

    def __len__(self) -> int:
        return len(self.patterns)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "patterns": [
                {"id": p.pattern_id, "grok": p.to_string()}
                for p in self.patterns
            ],
        }

    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        registry: Optional[DatatypeRegistry] = None,
    ) -> "PatternModel":
        registry = registry if registry is not None else DEFAULT_REGISTRY
        patterns = [
            GrokPattern.from_string(
                entry["grok"], pattern_id=entry["id"], registry=registry
            )
            for entry in data["patterns"]
        ]
        return cls(patterns, version=data.get("version", 1), registry=registry)


class FastLogParser:
    """Index-accelerated GROK parser; unparseable logs become anomalies.

    Parameters
    ----------
    model:
        A :class:`PatternModel` or a plain pattern sequence.
    tokenizer:
        Preprocessing front-end; a default whitespace tokenizer with the
        89-format timestamp detector is created when omitted.
    metrics:
        Registry for every count of the parse path: ``parser.*``,
        ``index.*`` and the tokenizer's ``tokenizer.*`` work.

    Every call counts into a :class:`~repro.parsing.tokenizer.ParseTally`
    of its own and publishes it once on return — :meth:`parse` per line,
    :meth:`parse_batch` per batch — so a parser shared by several
    threads keeps exact counts with one locked ``inc(n)`` per family and
    call.  An owner that parses record by record (the service's
    per-worker parse path) passes its own tally to :meth:`parse_tallied`
    and calls :meth:`publish` when its scope ends.
    """

    def __init__(
        self,
        model: Union[PatternModel, Sequence[GrokPattern]],
        tokenizer: Optional[Tokenizer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not isinstance(model, PatternModel):
            model = PatternModel(model)
        self._metrics = metrics if metrics is not None else get_registry()
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self._counters = ParseTally.counters(self._metrics)
        self._parse_seconds = self._metrics.histogram(
            "parser.parse_seconds"
        )
        self.model = model

    # ------------------------------------------------------------------
    @property
    def model(self) -> PatternModel:
        return self._model

    @model.setter
    def model(self, model: PatternModel) -> None:
        """Swap the pattern model (the Section V-A update path).

        The index is rebuilt for the new patterns; the tokenizer, which
        does not depend on the model, keeps its warm caches.
        """
        self._model = model
        self._index = PatternIndex(
            model.patterns, model.registry, metrics=self._metrics
        )

    @property
    def index(self) -> PatternIndex:
        return self._index

    def publish(self, tally: ParseTally) -> None:
        """Add ``tally``'s counts to this parser's registry."""
        tally.publish(self._counters)
        if tally.durations:
            self._parse_seconds.observe_many(tally.durations)

    # ------------------------------------------------------------------
    def parse(
        self, raw: str, source: Optional[str] = None
    ) -> Union[ParsedLog, Anomaly]:
        """Parse one raw line; a miss yields an ``UNPARSED_LOG`` anomaly."""
        tally = ParseTally()
        try:
            return self.parse_tallied(raw, source, tally)
        finally:
            self.publish(tally)

    def parse_tallied(
        self, raw: str, source: Optional[str], tally: ParseTally
    ) -> Union[ParsedLog, Anomaly]:
        """:meth:`parse`, counting into the caller's ``tally``, which the
        caller publishes with :meth:`publish`."""
        started = time.perf_counter()
        tokenized = self.tokenizer._tokenize(raw, tally)
        result = self._parse_tokenized(tokenized, source, tally)
        tally.durations.append(time.perf_counter() - started)
        return result

    def parse_tokenized(
        self, tokenized: TokenizedLog, source: Optional[str] = None
    ) -> Union[ParsedLog, Anomaly]:
        """Parse an already-tokenized log (used by model building)."""
        tally = ParseTally()
        try:
            return self._parse_tokenized(tokenized, source, tally)
        finally:
            self.publish(tally)

    def _parse_tokenized(
        self,
        tokenized: TokenizedLog,
        source: Optional[str],
        tally: ParseTally,
    ) -> Union[ParsedLog, Anomaly]:
        hit = self._index._lookup(tokenized, tally)
        if hit is None:
            tally.anomalies += 1
            return Anomaly(
                type=AnomalyType.UNPARSED_LOG,
                reason="log matches no discovered pattern",
                timestamp_millis=tokenized.timestamp_millis,
                logs=[tokenized.raw],
                source=source,
                severity=Severity.WARNING,
            )
        pattern, fields = hit
        tally.parsed += 1
        return ParsedLog(
            raw=tokenized.raw,
            pattern_id=pattern.pattern_id,
            fields=fields,
            timestamp_millis=tokenized.timestamp_millis,
            source=source,
        )

    def parse_stream(
        self, raw_logs: Iterable[str], source: Optional[str] = None
    ) -> Iterator[Union[ParsedLog, Anomaly]]:
        """Lazily parse an iterable of raw lines."""
        for raw in raw_logs:
            yield self.parse(raw, source=source)

    def parse_batch(
        self, raw_logs: Sequence[str], source: Optional[str] = None
    ) -> List[Union[ParsedLog, Anomaly]]:
        """Parse a batch; its counts publish once, at the end of the
        batch, and are exact when this returns."""
        tally = ParseTally()
        parse = self.parse_tallied
        try:
            return [parse(raw, source, tally) for raw in raw_logs]
        finally:
            self.publish(tally)

    def parse_all(
        self, raw_logs: Iterable[str], source: Optional[str] = None
    ) -> List[Union[ParsedLog, Anomaly]]:
        """Eagerly parse a batch (convenience for tests and benches)."""
        return self.parse_batch(list(raw_logs), source=source)
