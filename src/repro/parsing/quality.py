"""Pattern-model quality reports for human model inspection.

The model manager "allows human experts to inspect models and edit them"
(Section II-B); the key lesson of Section VIII is that training data "may
not cover all the possible use-cases".  A quality report quantifies how
well a pattern model fits a log sample so an expert (or the relearn
automation) can decide whether to rebuild or edit:

* **coverage** — fraction of logs the model parses;
* **usage** — how logs distribute over patterns (dead patterns are edit
  candidates; one pattern absorbing everything suggests over-general
  wildcards);
* **compression** — logs per pattern, LogMine's classic quality measure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .parser import FastLogParser, ParsedLog, PatternModel
from .tokenizer import Tokenizer

__all__ = ["PatternQualityReport", "evaluate_pattern_model"]


@dataclass
class PatternQualityReport:
    """Fit of a pattern model against a log sample."""

    total_logs: int
    parsed_logs: int
    #: pattern id → number of sample logs it parsed.
    usage: Dict[int, int] = field(default_factory=dict)
    #: Pattern ids that parsed no sample log.
    unused_patterns: List[int] = field(default_factory=list)
    #: Up to ``max_examples`` unparsed sample lines, for triage.
    unparsed_examples: List[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Fraction of the sample the model parses (1.0 = perfect)."""
        return self.parsed_logs / self.total_logs if self.total_logs else 1.0

    @property
    def compression_ratio(self) -> float:
        """Parsed logs per used pattern (higher = tighter model)."""
        used = sum(1 for count in self.usage.values() if count > 0)
        return self.parsed_logs / used if used else 0.0

    def summary(self) -> str:
        return (
            "coverage=%.3f (%d/%d), %d patterns used, %d unused, "
            "compression=%.1f logs/pattern"
            % (
                self.coverage,
                self.parsed_logs,
                self.total_logs,
                sum(1 for c in self.usage.values() if c > 0),
                len(self.unused_patterns),
                self.compression_ratio,
            )
        )


def evaluate_pattern_model(
    model: PatternModel,
    sample_logs: Sequence[str],
    tokenizer: Optional[Tokenizer] = None,
    max_examples: int = 10,
) -> PatternQualityReport:
    """Parse ``sample_logs`` under ``model`` and report fit quality."""
    parser = FastLogParser(
        model, tokenizer=tokenizer if tokenizer is not None else Tokenizer()
    )
    usage: Counter = Counter()
    unparsed_examples: List[str] = []
    parsed = 0
    for raw in sample_logs:
        result = parser.parse(raw)
        if isinstance(result, ParsedLog):
            parsed += 1
            usage[result.pattern_id] += 1
        elif len(unparsed_examples) < max_examples:
            unparsed_examples.append(raw)
    unused = sorted(
        pattern.pattern_id
        for pattern in model.patterns
        if usage.get(pattern.pattern_id, 0) == 0
    )
    return PatternQualityReport(
        total_logs=len(sample_logs),
        parsed_logs=parsed,
        usage=dict(usage),
        unused_patterns=unused,
        unparsed_examples=unparsed_examples,
    )
