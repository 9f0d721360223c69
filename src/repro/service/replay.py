"""Replay: run archived logs through a model pair, offline.

Section II-B: stored logs "can also be used for future log replaying to
perform further analysis".  :func:`replay` runs a list of raw logs (for
example ``LogStorage.by_source``) through a pattern and sequence model
pair outside the live pipeline and reports what it would have found.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.anomaly import Anomaly
from ..parsing.parser import FastLogParser, ParsedLog, PatternModel
from ..parsing.tokenizer import Tokenizer
from ..sequence.detector import LogSequenceDetector
from ..sequence.model import SequenceModel

__all__ = ["ReplayOutcome", "replay"]


@dataclass
class ReplayOutcome:
    """What one model pair would have reported over a replayed stream."""

    logs_replayed: int
    parsed: int
    anomalies: List[Anomaly] = field(default_factory=list)

    @property
    def anomaly_count(self) -> int:
        return len(self.anomalies)

    @property
    def counts_by_type(self) -> Dict[str, int]:
        return dict(Counter(a.type.value for a in self.anomalies))


def replay(
    raw_logs: List[str],
    pattern_model: PatternModel,
    sequence_model: SequenceModel,
    tokenizer: Optional[Tokenizer] = None,
    flush_open_events: bool = True,
) -> ReplayOutcome:
    """Run an archived stream through a model pair, offline."""
    parser = FastLogParser(
        pattern_model,
        tokenizer=tokenizer if tokenizer is not None else Tokenizer(),
    )
    detector = LogSequenceDetector(sequence_model)
    anomalies: List[Anomaly] = []
    parsed = 0
    for raw in raw_logs:
        result = parser.parse(raw)
        if isinstance(result, ParsedLog):
            parsed += 1
            anomalies.extend(detector.process(result))
        else:
            anomalies.append(result)
    if flush_open_events:
        anomalies.extend(detector.flush())
    return ReplayOutcome(
        logs_replayed=len(raw_logs), parsed=parsed, anomalies=anomalies
    )
