"""Logstash-style naive GROK parser (the Table IV baseline).

Logstash's grok filter tries each configured pattern in order, running the
pattern's full regular expression against the raw line until one matches.
With ``m`` patterns that is O(m) regex executions per log — the paper shows
this "cannot handle a large number of patterns" (datasets with 2012 and
3234 patterns never finished) and is up to 41x slower than LogLens'
signature-indexed parser even at a few hundred patterns.

:class:`NaiveGrokParser` reproduces exactly that strategy over the same
pattern sets LogLens discovers.  To keep the comparison apples-to-apples,
the baseline uses the same preprocessing front-end (tokenization +
timestamp unification) and then matches the *joined* token text with one
compiled regex per pattern, first match wins.  The speed difference
measured against :class:`~repro.parsing.parser.FastLogParser` is therefore
purely algorithmic: linear regex scan vs. signature index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

from ..core.anomaly import Anomaly, AnomalyType, Severity
from ..parsing.grok import GrokPattern
from ..parsing.parser import ParsedLog, PatternModel
from ..parsing.tokenizer import Tokenizer

__all__ = ["NaiveParserStats", "NaiveGrokParser"]


@dataclass
class NaiveParserStats:
    """Counters matching the fast parser's ``parser.parsed`` and
    ``parser.anomalies`` registry families."""

    parsed: int = 0
    anomalies: int = 0
    #: Total regex executions — the quantity that scales O(m·n).
    regex_attempts: int = 0


class NaiveGrokParser:
    """Linear-scan GROK matching: try every pattern's regex until one fits.

    Parameters
    ----------
    model:
        The same :class:`PatternModel` (or pattern list) LogLens uses.
    tokenizer:
        Preprocessing front-end; defaults to the standard tokenizer so the
        baseline sees the same canonicalised text.
    """

    def __init__(
        self,
        model: Union[PatternModel, Sequence[GrokPattern]],
        tokenizer: Optional[Tokenizer] = None,
    ) -> None:
        if not isinstance(model, PatternModel):
            model = PatternModel(model)
        self.model = model
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        # One compiled regex per pattern, in configuration order — the
        # Logstash strategy.
        self._compiled = [
            (pattern, pattern.compile_regex())
            for pattern in model.patterns
        ]
        self.stats = NaiveParserStats()

    # ------------------------------------------------------------------
    def parse(
        self, raw: str, source: Optional[str] = None
    ) -> Union[ParsedLog, Anomaly]:
        """Parse one raw line by scanning all patterns in order."""
        tokenized = self.tokenizer.tokenize(raw)
        joined = " ".join(tokenized.texts)
        for pattern, compiled in self._compiled:
            self.stats.regex_attempts += 1
            fields = compiled.match(joined)
            if fields is None:
                continue
            self.stats.parsed += 1
            return ParsedLog(
                raw=raw,
                pattern_id=pattern.pattern_id,
                fields=fields,
                timestamp_millis=tokenized.timestamp_millis,
                source=source,
            )
        self.stats.anomalies += 1
        return Anomaly(
            type=AnomalyType.UNPARSED_LOG,
            reason="log matches no configured pattern",
            timestamp_millis=tokenized.timestamp_millis,
            logs=[raw],
            source=source,
            severity=Severity.WARNING,
        )

    def parse_all(
        self, raw_logs: Iterable[str], source: Optional[str] = None
    ) -> List[Union[ParsedLog, Anomaly]]:
        return [self.parse(raw, source=source) for raw in raw_logs]
