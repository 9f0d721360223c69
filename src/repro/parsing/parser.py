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
from .tokenizer import TokenizedLog, Tokenizer

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

    def to_logstash_config(self) -> str:
        """Render the pattern set as a Logstash grok filter config.

        The paper's Table IV feeds the same discovered patterns to
        Logstash; this export makes that experiment literally runnable
        against a real Logstash install.  Custom datatypes are emitted as
        ``pattern_definitions`` so the config is self-contained.
        """
        definitions = []
        seen = set()
        for pattern in self.patterns:
            for element in pattern.fields:
                name = element.datatype
                if name in seen or name not in self.registry:
                    continue
                seen.add(name)
                definitions.append(
                    '      "%s" => "%s"'
                    % (name, self.registry[name].pattern.replace("\\", "\\\\"))
                )
        matches = ",\n".join(
            '      "%s"' % p.to_string().replace('"', '\\"')
            for p in self.patterns
        )
        return (
            "filter {\n"
            "  grok {\n"
            "    pattern_definitions => {\n%s\n    }\n"
            "    match => { \"message\" => [\n%s\n    ] }\n"
            "  }\n"
            "}\n" % ("\n".join(definitions), matches)
        )


class FastLogParser:
    """Index-accelerated GROK parser; unparseable logs become anomalies.

    Parameters
    ----------
    model:
        A :class:`PatternModel` or a plain pattern sequence.
    tokenizer:
        Preprocessing front-end; a default whitespace tokenizer with the
        89-format timestamp detector is created when omitted.
    deferred_metrics:
        When true, per-record counter increments and latency observations
        accumulate locally and publish once per batch
        (:meth:`flush_metrics`), instead of taking the registry locks per
        record.  Only safe for a parser driven by a single thread — e.g.
        the service's per-worker parsers.  A parser *shared* across
        threads must keep the exact default: its callers rely on every
        increment being atomic and immediately visible.
    """

    def __init__(
        self,
        model: Union[PatternModel, Sequence[GrokPattern]],
        tokenizer: Optional[Tokenizer] = None,
        metrics: Optional[MetricsRegistry] = None,
        deferred_metrics: bool = False,
    ) -> None:
        if not isinstance(model, PatternModel):
            model = PatternModel(model)
        self._metrics = metrics if metrics is not None else get_registry()
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self._model = model
        self._index = PatternIndex(
            model.patterns, model.registry, metrics=self._metrics
        )
        self._parsed = self._metrics.counter("parser.parsed")
        self._anomalies = self._metrics.counter("parser.anomalies")
        self._parse_seconds = self._metrics.histogram(
            "parser.parse_seconds"
        )
        self._deferred = False
        self._pend_parsed = 0
        self._pend_anomalies = 0
        self._pend_durations: List[float] = []
        if deferred_metrics:
            self.defer_metrics(True)

    # ------------------------------------------------------------------
    @property
    def model(self) -> PatternModel:
        return self._model

    @model.setter
    def model(self, model: PatternModel) -> None:
        """Swap the pattern model (the Section V-A update path)."""
        self._model = model
        self._index = PatternIndex(
            model.patterns, model.registry, metrics=self._metrics
        )
        if self._deferred:
            self._index.defer_metrics(True)

    @property
    def index(self) -> PatternIndex:
        return self._index

    # ------------------------------------------------------------------
    @property
    def deferred_metrics(self) -> bool:
        return self._deferred

    def defer_metrics(self, deferred: bool) -> None:
        """Toggle batched metric publication for the whole parse path.

        Propagates to the tokenizer and the index; leaving the mode
        flushes everything pending.
        """
        if self._deferred and not deferred:
            self.flush_metrics()
        self._deferred = deferred
        self.tokenizer.defer_metrics(deferred)
        self._index.defer_metrics(deferred)

    def flush_metrics(self) -> None:
        """Publish everything accumulated while in deferred mode."""
        if self._pend_parsed:
            self._parsed.inc(self._pend_parsed)
            self._pend_parsed = 0
        if self._pend_anomalies:
            self._anomalies.inc(self._pend_anomalies)
            self._pend_anomalies = 0
        if self._pend_durations:
            self._parse_seconds.observe_many(self._pend_durations)
            self._pend_durations = []
        self.tokenizer.flush_metrics()
        self._index.flush_metrics()

    # ------------------------------------------------------------------
    def parse(
        self, raw: str, source: Optional[str] = None
    ) -> Union[ParsedLog, Anomaly]:
        """Parse one raw line; a miss yields an ``UNPARSED_LOG`` anomaly."""
        started = time.perf_counter()
        tokenized = self.tokenizer.tokenize(raw)
        result = self.parse_tokenized(tokenized, source=source)
        elapsed = time.perf_counter() - started
        if self._deferred:
            self._pend_durations.append(elapsed)
        else:
            self._parse_seconds.observe(elapsed)
        return result

    def parse_tokenized(
        self, tokenized: TokenizedLog, source: Optional[str] = None
    ) -> Union[ParsedLog, Anomaly]:
        """Parse an already-tokenized log (used by streaming workers)."""
        hit = self._index.lookup(tokenized)
        if hit is None:
            if self._deferred:
                self._pend_anomalies += 1
            else:
                self._anomalies.inc()
            return Anomaly(
                type=AnomalyType.UNPARSED_LOG,
                reason="log matches no discovered pattern",
                timestamp_millis=tokenized.timestamp_millis,
                logs=[tokenized.raw],
                source=source,
                severity=Severity.WARNING,
            )
        pattern, fields = hit
        if self._deferred:
            self._pend_parsed += 1
        else:
            self._parsed.inc()
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
        """Parse a batch with per-batch (not per-record) metric updates.

        Counts are exact again by the time this returns: the deferral is
        scoped to the call and flushed on the way out (unless the parser
        is already in deferred mode, in which case the owner flushes).
        """
        was_deferred = self._deferred
        if not was_deferred:
            self.defer_metrics(True)
        try:
            return [self.parse(raw, source=source) for raw in raw_logs]
        finally:
            if not was_deferred:
                self.defer_metrics(False)

    def parse_all(
        self, raw_logs: Iterable[str], source: Optional[str] = None
    ) -> List[Union[ParsedLog, Anomaly]]:
        """Eagerly parse a batch (convenience for tests and benches)."""
        return self.parse_batch(list(raw_logs), source=source)
