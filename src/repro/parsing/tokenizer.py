"""Log preprocessing: tokenization, sub-token splitting, datatype tagging.

The LogLens preprocessing pipeline (paper, Section III-A1/A2):

1. split a raw log into tokens on a configurable delimiter set (default:
   whitespace);
2. apply user-provided RegEx *split rules* that break one token into several
   (``"123KB"`` → ``"123"``, ``"KB"``);
3. identify multi-token timestamps, merge them into a single canonical
   ``DATETIME`` token, and remember the log's event time;
4. tag every token with its most specific datatype.

Steps 3 and 4 are one pass over the token texts, and each timestamp is
detected exactly once per line: the event time the parser reports is
also the one the service archives.  The result — a :class:`TokenizedLog`
— holds two parallel lists, the token texts and their datatypes, and no
per-token objects; :attr:`TokenizedLog.tokens` builds :class:`Token`
values on demand for callers off the hot path.  It is the common
currency of pattern discovery (:mod:`repro.parsing.logmine`) and fast
parsing (:mod:`repro.parsing.parser`).

Per token the pass costs one dict lookup for a token it has seen and one
regex for a token it has not.  A datatype memo maps token text to
datatype and holds only tokens the timestamp detector's gate rejects:
such a token can never start a timestamp, so a memo hit skips the gate
and inference alike.  A miss runs the start-character check and the gate
once.  A token that passes goes to the detector's ungated
:meth:`~repro.parsing.timestamps.TimestampDetector.lookup`; when it is
no timestamp it is inferred and not memoised, since the tokens after it
decide.  Inference is one alternation over the registry's regexes
(:meth:`~repro.parsing.datatypes.DatatypeRegistry.infer`).  The memo
belongs to one (gate, inference plan) pair: a call that finds either
changed (``add_format`` on the detector, ``register`` on the registry,
or another detector or registry) starts a new, empty memo.  It stops
growing at 200,000 entries.  A detector with no gate
(``use_filter=False``, the Section VI-A ablation) keeps the unfiltered
work: ``identify`` on every token, then memoised inference.

The loop can be resumed.  The parser's known-shape path
(:mod:`repro.parsing.parser`) reads a line's leading token and its
field tokens the way the loop would, with the same memo, gate and
``lookup``; when it cannot finish a line it hands the loop the merged
tokens and the datatypes it has, and the loop goes on from there.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import Counter, MetricsRegistry, get_registry
from .datatypes import DEFAULT_REGISTRY, DatatypeRegistry
from .timestamps import TimestampDetector

__all__ = [
    "Token",
    "TokenizedLog",
    "SplitRule",
    "ParseTally",
    "Tokenizer",
]


class Token:
    """One token of a preprocessed log: its text and inferred datatype.

    A read-side view: the tokenizer stores parallel text/datatype lists
    and builds Tokens only when :attr:`TokenizedLog.tokens` is read.
    Equality and hashing are by ``(text, datatype)``.
    """

    __slots__ = ("text", "datatype")

    def __init__(self, text: str, datatype: str) -> None:
        self.text = text
        self.datatype = datatype

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Token:
            return (
                self.text == other.text  # type: ignore[union-attr]
                and self.datatype == other.datatype  # type: ignore[union-attr]
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.text, self.datatype))

    def __repr__(self) -> str:
        return "Token(text=%r, datatype=%r)" % (self.text, self.datatype)


class TokenizedLog:
    """A fully preprocessed log line.

    The log-signature is computed lazily and cached: the pattern index
    reads it on every lookup, and the lists are never mutated after
    construction.

    Attributes
    ----------
    raw:
        The original log line.
    texts:
        Token texts, timestamps already merged and canonicalised.
    datatypes:
        The datatype of each entry of ``texts``, position for position.
    timestamp_millis:
        Event time from the first identified timestamp (epoch millis), or
        ``None`` when the log carries no recognisable timestamp.
    """

    __slots__ = ("raw", "texts", "datatypes", "timestamp_millis", "_signature")

    def __init__(
        self,
        raw: str,
        texts: List[str],
        datatypes: List[str],
        timestamp_millis: Optional[int] = None,
    ) -> None:
        self.raw = raw
        self.texts = texts
        self.datatypes = datatypes
        self.timestamp_millis = timestamp_millis
        self._signature: Optional[str] = None

    @property
    def signature(self) -> str:
        """The log-signature: concatenated datatypes (paper, Section III-B)."""
        signature = self._signature
        if signature is None:
            signature = self._signature = " ".join(self.datatypes)
        return signature

    @property
    def tokens(self) -> List[Token]:
        """The tokens as :class:`Token` values, built on every read.

        Deliberately uncached: a cached list would keep a second copy of
        every token alive wherever a log is held (model building keeps
        whole clusters of them).
        """
        return [Token(t, d) for t, d in zip(self.texts, self.datatypes)]

    def __len__(self) -> int:
        return len(self.texts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is TokenizedLog:
            return (
                self.raw == other.raw  # type: ignore[union-attr]
                and self.texts == other.texts  # type: ignore[union-attr]
                and self.datatypes
                == other.datatypes  # type: ignore[union-attr]
                and self.timestamp_millis
                == other.timestamp_millis  # type: ignore[union-attr]
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like the old dataclass

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return (
            TokenizedLog,
            (self.raw, self.texts, self.datatypes, self.timestamp_millis),
        )

    def __repr__(self) -> str:
        return (
            "TokenizedLog(raw=%r, texts=%r, datatypes=%r, timestamp_millis=%r)"
            % (self.raw, self.texts, self.datatypes, self.timestamp_millis)
        )


class SplitRule:
    """A user rule splitting one token into sub-tokens via capture groups.

    The paper's example rule ``"[0-9]+KB" => "[0-9]+ KB"`` is expressed here
    as ``SplitRule(r"([0-9]+)(KB)")``: when the pattern fully matches a
    token, the capture groups become the sub-tokens.
    """

    def __init__(self, pattern: str) -> None:
        self._regex = re.compile(pattern)
        if self._regex.groups < 2:
            raise ValueError(
                "split rule %r needs at least two capture groups" % pattern
            )
        self.pattern = pattern

    def apply(self, token: str) -> Optional[List[str]]:
        """Return sub-tokens when the rule matches, else ``None``."""
        m = self._regex.fullmatch(token)
        if m is None:
            return None
        parts = [g for g in m.groups() if g]
        return parts if len(parts) >= 2 else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SplitRule(%r)" % self.pattern


class ParseTally:
    """What one parse-plane call has counted so far, not yet published.

    Counts belong to the call, not to the tokenizer, index or parser it
    runs on: every entry point (``tokenize``, ``lookup``, ``parse`` and
    their batch forms) counts into a tally of its own and publishes it
    with one ``inc(n)`` / ``observe_many`` per family when the call
    returns.  The service's per-worker parse path keeps one tally per
    worker for a whole step and publishes it after the parse batch.
    Plain ints and a list, so counting takes no lock; one tally belongs
    to one thread at a time.
    """

    __slots__ = (
        "logs", "tokens", "timestamps",
        "lookups", "group_hits", "pattern_scans",
        "parsed", "anomalies", "durations",
    )

    def __init__(self) -> None:
        self.logs = self.tokens = self.timestamps = 0
        self.lookups = self.group_hits = self.pattern_scans = 0
        self.parsed = self.anomalies = 0
        self.durations: List[float] = []

    #: The registry counter each count publishes to.
    COUNTERS = (
        ("logs", "tokenizer.logs"),
        ("tokens", "tokenizer.tokens"),
        ("timestamps", "tokenizer.timestamps_detected"),
        ("lookups", "index.lookups"),
        ("group_hits", "index.group_hits"),
        ("pattern_scans", "index.pattern_scans"),
        ("parsed", "parser.parsed"),
        ("anomalies", "parser.anomalies"),
    )

    @classmethod
    def counters(
        cls, metrics: MetricsRegistry, prefix: str = ""
    ) -> List[Tuple[str, Counter]]:
        """``(count, counter)`` pairs for the counters of ``metrics``
        whose names start with ``prefix``; resolve once, publish often."""
        return [
            (count, metrics.counter(name))
            for count, name in cls.COUNTERS
            if name.startswith(prefix)
        ]

    def publish(self, counters: List[Tuple[str, Counter]]) -> None:
        """Add each count to its counter, one ``inc(n)`` apiece."""
        for count, counter in counters:
            amount = getattr(self, count)
            if amount:
                counter.inc(amount)


class Tokenizer:
    """Configurable preprocessing front-end.

    Parameters
    ----------
    delimiters:
        Characters to split on; default is all whitespace.
    split_rules:
        :class:`SplitRule` instances applied to each token, first match wins.
    registry:
        Datatype registry used for tagging.
    timestamp_detector:
        Detector used to merge and canonicalise timestamps; pass ``None``
        to disable timestamp identification entirely.
    metrics:
        Registry for the ``tokenizer.*`` counts of :meth:`tokenize` and
        :meth:`tokenize_many`; a parser publishes its tokenizer's counts
        into the parser's registry instead.

    Each call counts into its own :class:`ParseTally` and publishes it
    on return, so threads may share a tokenizer with exact counts.
    """

    def __init__(
        self,
        delimiters: Optional[str] = None,
        split_rules: Optional[Sequence[SplitRule]] = None,
        registry: Optional[DatatypeRegistry] = None,
        timestamp_detector: Optional[TimestampDetector] = "default",  # type: ignore[assignment]
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.delimiters = delimiters
        if delimiters:
            self._splitter = re.compile("[%s]+" % re.escape(delimiters))
        else:
            self._splitter = None
        self.split_rules = list(split_rules or [])
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        if timestamp_detector == "default":
            self.timestamp_detector: Optional[TimestampDetector] = (
                TimestampDetector()
            )
        else:
            self.timestamp_detector = timestamp_detector
        # Datatype memo (see the module docstring): literal vocabulary
        # repeats massively across logs, so most tokens hit it.  Held
        # with the gate and inference plan it is valid for; bounded to
        # keep long-running streams from growing it without limit.
        self._memo: Tuple[Any, Any, Dict[str, str]] = (None, None, {})
        self._memo_cap = 200_000
        self._counters = ParseTally.counters(
            metrics if metrics is not None else get_registry(), "tokenizer."
        )

    # ------------------------------------------------------------------
    def tokenize(self, raw: str) -> TokenizedLog:
        """Preprocess one raw log line into a :class:`TokenizedLog`."""
        tally = ParseTally()
        log = self._tokenize(raw, tally)
        tally.publish(self._counters)
        return log

    def tokenize_many(self, raw_logs: Sequence[str]) -> List[TokenizedLog]:
        """Preprocess a batch of raw log lines; counts publish once, at
        the end of the batch."""
        tally = ParseTally()
        tokenize = self._tokenize
        try:
            return [tokenize(line, tally) for line in raw_logs]
        finally:
            tally.publish(self._counters)

    def _tokenize(self, raw: str, tally: ParseTally) -> TokenizedLog:
        """:meth:`tokenize`, counting into the caller's ``tally``."""
        texts = self._apply_split_rules(self._split(raw))
        datatypes: List[str] = []
        ts_millis = self._merge_timestamps(texts, datatypes, None)
        tally.logs += 1
        tally.tokens += len(texts)
        if ts_millis is not None:
            tally.timestamps += 1
        return TokenizedLog(raw, texts, datatypes, ts_millis)

    # ------------------------------------------------------------------
    def _split(self, raw: str) -> List[str]:
        if self._splitter is None:
            return raw.split()
        return [t for t in self._splitter.split(raw) if t]

    def _apply_split_rules(self, texts: List[str]) -> List[str]:
        if not self.split_rules:
            return texts
        out: List[str] = []
        for text in texts:
            for rule in self.split_rules:
                parts = rule.apply(text)
                if parts is not None:
                    out.extend(parts)
                    break
            else:
                out.append(text)
        return out

    def _merge_timestamps(
        self,
        texts: List[str],
        datatypes: List[str],
        ts_millis: Optional[int],
    ) -> Optional[int]:
        """Merge timestamps in place and tag every token; one pass.

        ``texts`` (this call's own list) is edited in place: each
        multi-token timestamp collapses into its canonical text, and
        ``datatypes`` grows to run parallel to it.  The pass starts at
        token ``len(datatypes)``: a caller that has already tagged (and
        merged) a prefix resumes here with the prefix's datatypes and
        event time, and no token of the prefix is looked at again.
        Returns the event time of the first timestamp.
        """
        i = len(datatypes)
        n = len(texts)
        detector = self.timestamp_detector
        gate = detector.gate if detector is not None else None
        registry = self.registry
        inference = registry.inference
        memo_gate, memo_inference, memo = self._memo
        if memo_gate is not gate or memo_inference is not inference:
            # The gate or the inference plan changed since the memo was
            # filled: start a new one (a call still running on the old
            # one keeps it to itself).
            memo = {}
            self._memo = (gate, inference, memo)
        # Hot loop: bind lookups once per call, not once per token.
        append = datatypes.append
        memo_get = memo.get
        memo_cap = self._memo_cap
        infer = registry.infer
        if gate is not None:
            starts = detector.start_chars  # type: ignore[union-attr]
            lookup = detector.lookup  # type: ignore[union-attr]
            while i < n:
                text = texts[i]
                datatype = memo_get(text)
                if datatype is None:
                    # An ASCII first character must be able to start a
                    # head; a non-ASCII one may case-fold onto one.
                    if (
                        text[:1] in starts or text[:1] >= "\x80"
                    ) and gate(text) is not None:
                        match = lookup(texts, i)
                        if match is not None:
                            normalized, consumed, _, millis = match
                            texts[i:i + consumed] = (normalized,)
                            n -= consumed - 1
                            append("DATETIME")
                            if ts_millis is None:
                                ts_millis = millis
                            i += 1
                            continue
                        datatype = infer(text)
                    else:
                        datatype = infer(text)
                        if len(memo) < memo_cap:
                            memo[text] = datatype
                append(datatype)
                i += 1
            return ts_millis
        identify = detector.identify if detector is not None else None
        while i < n:
            text = texts[i]
            if identify is not None:
                match = identify(texts, i)
                if match is not None:
                    normalized, consumed, _, millis = match
                    texts[i:i + consumed] = (normalized,)
                    n -= consumed - 1
                    append("DATETIME")
                    if ts_millis is None:
                        ts_millis = millis
                    i += 1
                    continue
            datatype = memo_get(text)
            if datatype is None:
                datatype = infer(text)
                if len(memo) < memo_cap:
                    memo[text] = datatype
            append(datatype)
            i += 1
        return ts_millis
