"""The stateless fast log parser (paper, Section III-B).

:class:`FastLogParser` combines the preprocessing tokenizer, the discovered
pattern set, and the signature index into LogLens' exemplary *stateless*
anomaly detector: every incoming log either parses into structured fields
under exactly one pattern, or is reported as an :class:`~repro.core.anomaly.
Anomaly` of type ``UNPARSED_LOG``.

The parser is deliberately a pure function of its model — streaming workers
each hold a broadcast copy, and a model update simply swaps the model for a
fresh one (Section V-A).

**Known-shape path.**  :meth:`FastLogParser.parse_tallied` answers a line
of an already-seen shape without the tokenizer's per-token loop or the
index's lookup, from the pattern's *literal skeleton*:

1. split the line once with ``str.split()``;
2. run the loop's first iteration on the leading token, as the loop runs
   it: the datatype memo, else the gate, and a token that passes goes
   through the detector's own ``lookup`` (a timestamp is merged);
3. dispatch on (token count, position and text of a pattern's first
   literal) and check all of a candidate's literals with one
   ``itemgetter`` compare;
4. give only the field tokens a datatype: the memo, else gate and
   inference, with ``lookup`` for a token the gate passes;
5. read the memoised group of the resulting signature once.

It is a hit only when that group is non-empty and headed by the
candidate; the ``ParsedLog`` and every :class:`ParseTally` count then
equal what ``Tokenizer._tokenize`` and ``PatternIndex._lookup`` give.
Any other outcome resumes the tokenizer's loop at the token the path
reached, with the prefix already merged, so no token is looked up twice.

A pattern joins the dispatch on its first index hit and is left out when
the path cannot prove a hit on it: an ``ANYDATA`` field, no literal, a
``DATETIME`` field after element 0, a literal the gate accepts, or a
registry other than the index's.  The path is off with custom
delimiters, split rules or a detector without a gate.  A parser's table
is tied to its index, tokenizer, detector, gate and both inference
plans, and starts empty when any of them changes; it admits nothing
while the index's registry snapshot differs from the live registry.
Skeletons depend only on the pattern, the gate and the inference plan,
so the parsers of one model (one per streaming worker) share them.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Set, Tuple, Union,
)

from ..core.anomaly import Anomaly, AnomalyType, Severity
from ..obs import MetricsRegistry, get_registry
from .datatypes import DatatypeRegistry, DEFAULT_REGISTRY
from .grok import Field, GrokPattern
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


#: A pattern as the known-shape path checks it: the pattern; a getter
#: of the line's tokens at its literal positions and what it must return;
#: per element, a literal's datatype or a field's name (a line's copy
#: gets the field's datatype there); the field positions after element
#: 0; and the name of a field at element 0, else ``None``.
_Skeleton = Tuple[
    GrokPattern,
    Callable[[List[str]], Any],
    Any,
    Tuple[str, ...],
    Tuple[int, ...],
    Optional[str],
]


class _Dispatch:
    """The admitted skeletons of one pattern model under one timestamp
    gate and inference plan.

    ``by_length[n]`` holds ``(position, slots)`` pairs: ``slots[text]``
    are the admitted skeletons of ``n`` elements whose first literal is
    ``text`` at ``position``, most specific first.  Containers are
    replaced or filled whole under ``lock``, so a reader never sees half
    of one.  A skeleton depends only on its pattern, the gate and the
    plan, so the parsers of a model's workers share one dispatch; each
    checks a hit against its own index.
    """

    __slots__ = ("lock", "admitted", "by_length")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.admitted: Set[int] = set()
        self.by_length: Dict[
            int, Tuple[Tuple[int, Dict[str, Tuple[_Skeleton, ...]]], ...]
        ] = {}


#: Each live pattern model's dispatches, by (gate, inference plan).
_DISPATCHES: "weakref.WeakKeyDictionary[PatternModel, Dict[Any, _Dispatch]]"
_DISPATCHES = weakref.WeakKeyDictionary()
_DISPATCHES_LOCK = threading.Lock()


class _ShapeTable:
    """One parser's known-shape state: the dispatch it reads and the
    tokenizer, detector, memo and index state it is valid for."""

    __slots__ = (
        "tokenizer", "memo", "detector", "gate", "starts", "inference",
        "infer", "registry", "pattern_inference", "groups", "dispatch",
        "by_length",
    )

    def __init__(
        self,
        tokenizer: Tokenizer,
        model: PatternModel,
        index: PatternIndex,
        trusted: bool,
    ) -> None:
        detector = tokenizer.timestamp_detector
        assert detector is not None
        self.tokenizer = tokenizer
        self.detector = detector
        self.starts = detector.start_chars
        self.infer = tokenizer.registry.infer
        # The memo's own gate and inference plan: while both are live,
        # every entry of its dict is an answer the tokenizer would give.
        self.gate, self.inference, self.memo = tokenizer._memo
        self.registry = index.registry
        self.pattern_inference = index.registry.inference
        self.groups = index._groups
        self.dispatch: Optional[_Dispatch] = None
        self.by_length: Dict[
            int, Tuple[Tuple[int, Dict[str, Tuple[_Skeleton, ...]]], ...]
        ] = {}
        if trusted:
            with _DISPATCHES_LOCK:
                dispatches = _DISPATCHES.setdefault(model, {})
                key = (self.gate, self.inference)
                dispatch = dispatches.get(key)
                if dispatch is None:
                    dispatch = dispatches[key] = _Dispatch()
            self.dispatch = dispatch
            self.by_length = dispatch.by_length


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
        self._shapes: Optional[_ShapeTable] = None

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
        caller publishes with :meth:`publish`.

        A line of a known shape takes the known-shape path (module
        docstring); everything else resumes the tokenizer's loop where
        that path stopped, and the result and counts are the same.
        """
        started = time.perf_counter()
        tokenizer = self.tokenizer
        table = self._shapes
        if table is None or not (
            table.tokenizer is tokenizer
            and tokenizer.timestamp_detector is table.detector
            and table.detector.gate is table.gate
            and tokenizer.registry.inference is table.inference
            and table.registry.inference is table.pattern_inference
            and not tokenizer.split_rules
        ):
            return self._parse_slow(raw, source, tally, started)
        texts = raw.split()
        datatypes: List[str] = []
        ts_millis: Optional[int] = None
        if texts:
            memo = table.memo
            memo_get = memo.get
            gate = table.gate
            starts = table.starts
            infer = table.infer
            # The tokenizer loop's first iteration, as it runs it.
            text = texts[0]
            datatype = memo_get(text)
            if datatype is None:
                if (
                    text[:1] in starts or text[:1] >= "\x80"
                ) and gate(text) is not None:
                    match = table.detector.lookup(texts, 0)
                    if match is not None:
                        normalized, consumed, _, ts_millis = match
                        texts[:consumed] = (normalized,)
                        datatype = "DATETIME"
                    else:
                        datatype = infer(text)
                else:
                    datatype = infer(text)
                    if len(memo) < tokenizer._memo_cap:
                        memo[text] = datatype
            datatypes.append(datatype)
            found = None
            for position, slots in table.by_length.get(len(texts), ()):
                for skeleton in slots.get(texts[position], ()):
                    if skeleton[1](texts) == skeleton[2]:
                        found = skeleton
                        break
                if found is not None:
                    break
            if found is not None:
                pattern, _, _, template, field_positions, head = found
                datatypes = list(template)
                datatypes[0] = datatype
                for j in field_positions:
                    text = texts[j]
                    datatype = memo_get(text)
                    if datatype is None:
                        if (
                            text[:1] in starts or text[:1] >= "\x80"
                        ) and gate(text) is not None:
                            match = table.detector.lookup(texts, j)
                            if match is not None:
                                # A timestamp changes the shape: merge
                                # it and let the tokenizer go on after.
                                normalized, consumed, _, millis = match
                                texts[j:j + consumed] = (normalized,)
                                del datatypes[j:]
                                datatypes.append("DATETIME")
                                if ts_millis is None:
                                    ts_millis = millis
                                break
                            datatype = infer(text)
                        else:
                            datatype = infer(text)
                            if len(memo) < tokenizer._memo_cap:
                                memo[text] = datatype
                    datatypes[j] = datatype
                else:
                    group = table.groups.get(" ".join(datatypes))
                    if group and group[0] is pattern:
                        # What _tokenize and the index's memoised-group
                        # hit count, with the head matching at once.
                        tally.logs += 1
                        tally.tokens += len(texts)
                        if ts_millis is not None:
                            tally.timestamps += 1
                        tally.lookups += 1
                        tally.group_hits += 1
                        tally.pattern_scans += 1
                        tally.parsed += 1
                        values = {} if head is None else {head: texts[0]}
                        for j in field_positions:
                            values[template[j]] = texts[j]
                        result: Union[ParsedLog, Anomaly] = ParsedLog(
                            raw, pattern.pattern_id, values, ts_millis,
                            source,
                        )
                        tally.durations.append(
                            time.perf_counter() - started
                        )
                        return result
        ts_millis = tokenizer._merge_timestamps(texts, datatypes, ts_millis)
        tally.logs += 1
        tally.tokens += len(texts)
        if ts_millis is not None:
            tally.timestamps += 1
        tokenized = TokenizedLog(raw, texts, datatypes, ts_millis)
        result = self._parse_tokenized(tokenized, source, tally)
        self._admit(table, tokenized)
        tally.durations.append(time.perf_counter() - started)
        return result

    def _parse_slow(
        self,
        raw: str,
        source: Optional[str],
        tally: ParseTally,
        started: float,
    ) -> Union[ParsedLog, Anomaly]:
        """The tokenizer and the index, for a parser with no current
        shape table; starts a new table when the path can run."""
        tokenizer = self.tokenizer
        tokenized = tokenizer._tokenize(raw, tally)
        result = self._parse_tokenized(tokenized, source, tally)
        detector = tokenizer.timestamp_detector
        if (
            tokenizer._splitter is None
            and not tokenizer.split_rules
            and detector is not None
            and detector.gate is not None
        ):
            index = self._index
            snapshot = index._snapshot_registry
            registry = index.registry
            # A hit stands for the head's match, which reads the live
            # registry; the group was built on the index's snapshot.
            # Without a snapshot equal to the registry the table admits
            # nothing.
            trusted = snapshot is not None and [
                snapshot[name] for name in snapshot.names()
            ] == [registry[name] for name in registry.names()]
            table = self._shapes = _ShapeTable(
                tokenizer, self._model, index, trusted
            )
            self._admit(table, tokenized)
        tally.durations.append(time.perf_counter() - started)
        return result

    def _admit(self, table: _ShapeTable, log: TokenizedLog) -> None:
        """Add the head of ``log``'s memoised group to ``table``, once.

        A pattern is left out — its lines keep the slow path — when it
        has an ``ANYDATA`` field, no literal, a ``DATETIME`` field after
        element 0, a literal the timestamp gate accepts, or a registry
        other than the index's.
        """
        dispatch = table.dispatch
        group = table.groups.get(log.signature)
        if not group or dispatch is None:
            return
        pattern = group[0]
        if id(pattern) in dispatch.admitted:
            return
        with dispatch.lock:
            if id(pattern) in dispatch.admitted:
                return
            dispatch.admitted.add(id(pattern))
            found = _skeleton(table, pattern)
            if found is None:
                return
            position, text, skeleton = found
            length = len(skeleton[3])
            # A new slots dict is filled before it is published.
            probes = dict(dispatch.by_length.get(length, ()))
            slots = probes.setdefault(position, {})
            slots[text] = tuple(
                sorted(
                    slots.get(text, ()) + (skeleton,),
                    key=lambda s: s[0].generality_key(),
                )
            )
            dispatch.by_length[length] = tuple(sorted(probes.items()))

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


def _skeleton(
    table: _ShapeTable, pattern: GrokPattern
) -> Optional[Tuple[int, str, _Skeleton]]:
    """The position and text of ``pattern``'s first literal, and the
    pattern as the known-shape path checks it; ``None`` when the path
    cannot prove a hit on it (see :meth:`FastLogParser._admit`).

    A literal's datatype is the one the tokenizer gives it: its memo
    entry, else inference; the gate must reject it, so the tokenizer
    never looks for a timestamp there.
    """
    if pattern.has_wildcard or pattern.registry is not table.registry:
        return None
    memo = table.memo
    gate, starts = table.gate, table.starts
    skeleton: List[Optional[str]] = []
    template: List[str] = []
    literal_positions: List[int] = []
    field_positions: List[int] = []
    for j, element in enumerate(pattern.elements):
        if isinstance(element, Field):
            if j and element.datatype == "DATETIME":
                return None
            if j:
                field_positions.append(j)
            skeleton.append(None)
            template.append(element.name)
            continue
        text = element.text
        datatype = memo.get(text)
        if datatype is None:
            if (
                text[:1] in starts  # type: ignore[operator]
                or text[:1] >= "\x80"
            ) and gate(text) is not None:  # type: ignore[misc]
                return None
            datatype = table.infer(text)
        literal_positions.append(j)
        skeleton.append(text)
        template.append(datatype)
    if not literal_positions:
        return None
    literals = itemgetter(*literal_positions)
    first = pattern.elements[0]
    position = literal_positions[0]
    text = skeleton[position]
    assert text is not None
    return position, text, (
        pattern,
        literals,
        literals(skeleton),
        tuple(template),
        tuple(field_positions),
        first.name if isinstance(first, Field) else None,
    )
