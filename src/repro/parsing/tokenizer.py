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
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry, get_registry
from .datatypes import DEFAULT_REGISTRY, DatatypeRegistry
from .timestamps import TimestampDetector

__all__ = ["Token", "TokenizedLog", "SplitRule", "Tokenizer"]


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
        # Datatype inference memo: literal vocabulary repeats massively
        # across logs, so most tokens hit the memo.  Bounded to keep
        # long-running streams from growing it without limit.
        self._infer_memo: dict = {}
        self._infer_memo_cap = 200_000
        obs = metrics if metrics is not None else get_registry()
        self._m_logs = obs.counter("tokenizer.logs")
        self._m_tokens = obs.counter("tokenizer.tokens")
        self._m_timestamps = obs.counter("tokenizer.timestamps_detected")
        # Deferred-metrics mode: counter increments accumulate in plain
        # ints and publish on flush (one lock round-trip per batch, not
        # three per record).  Only safe while this tokenizer is driven by
        # a single thread — the per-worker parsers of the service are;
        # the default stays exact per record.
        self._deferred = False
        self._pend_logs = 0
        self._pend_tokens = 0
        self._pend_timestamps = 0

    # ------------------------------------------------------------------
    def defer_metrics(self, deferred: bool) -> None:
        """Toggle per-batch metric publication; leaving the mode flushes."""
        if self._deferred and not deferred:
            self.flush_metrics()
        self._deferred = deferred

    def flush_metrics(self) -> None:
        """Publish metric increments accumulated while deferred."""
        if self._pend_logs:
            self._m_logs.inc(self._pend_logs)
            self._pend_logs = 0
        if self._pend_tokens:
            self._m_tokens.inc(self._pend_tokens)
            self._pend_tokens = 0
        if self._pend_timestamps:
            self._m_timestamps.inc(self._pend_timestamps)
            self._pend_timestamps = 0

    # ------------------------------------------------------------------
    def tokenize(self, raw: str) -> TokenizedLog:
        """Preprocess one raw log line into a :class:`TokenizedLog`."""
        texts = self._apply_split_rules(self._split(raw))
        datatypes, ts_millis = self._merge_timestamps(texts)
        if self._deferred:
            self._pend_logs += 1
            self._pend_tokens += len(texts)
            if ts_millis is not None:
                self._pend_timestamps += 1
        else:
            self._m_logs.inc()
            self._m_tokens.inc(len(texts))
            if ts_millis is not None:
                self._m_timestamps.inc()
        return TokenizedLog(raw, texts, datatypes, ts_millis)

    def tokenize_many(self, raw_logs: Sequence[str]) -> List[TokenizedLog]:
        """Preprocess a batch of raw log lines.

        Metric publication is batched across the call (and flushed before
        returning, so counts stay exact for the caller).
        """
        was_deferred = self._deferred
        self._deferred = True
        try:
            return [self.tokenize(line) for line in raw_logs]
        finally:
            self._deferred = was_deferred
            if not was_deferred:
                self.flush_metrics()

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
        self, texts: List[str]
    ) -> Tuple[List[str], Optional[int]]:
        """Merge timestamps in place and tag every token; one pass.

        ``texts`` (this call's own list) is edited in place: each
        multi-token timestamp collapses into its canonical text.  Returns
        the datatype list parallel to the edited ``texts``, and the event
        time of the first timestamp.
        """
        datatypes: List[str] = []
        ts_millis: Optional[int] = None
        i = 0
        n = len(texts)
        detector = self.timestamp_detector
        # Hot loop: bind lookups once per call, not once per token.
        append = datatypes.append
        memo_get = self._infer_memo.get
        memo = self._infer_memo
        memo_cap = self._infer_memo_cap
        infer = self.registry.infer
        identify = gate = starts = None
        if detector is not None:
            identify = detector.identify
            gate, starts = detector.gate, detector.start_chars
        while i < n:
            text = texts[i]
            # Pre-check with the detector's exact gate so most tokens never
            # cost an identify call: an ASCII first character must be able
            # to start a head; a non-ASCII one may case-fold onto one.
            if identify is not None and (
                gate is None
                or (
                    (text[:1] in starts or text[:1] >= "\x80")
                    and gate(text) is not None
                )
            ):
                match = identify(texts, i)
                if match is not None:
                    consumed = match.tokens_consumed
                    texts[i:i + consumed] = (match.normalized,)
                    n -= consumed - 1
                    append("DATETIME")
                    if ts_millis is None:
                        ts_millis = match.epoch_millis
                    i += 1
                    continue
            datatype = memo_get(text)
            if datatype is None:
                datatype = infer(text)
                if len(memo) < memo_cap:
                    memo[text] = datatype
            append(datatype)
            i += 1
        return datatypes, ts_millis
