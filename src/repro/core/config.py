"""Configuration facade bundling every tuning knob of LogLens.

One :class:`LogLensConfig` object describes a full deployment: the
preprocessing front-end (delimiters, split rules, timestamp formats),
pattern discovery (clustering distance, token scores), sequence learning
(ID discovery supports, duration slack), and the runtime (partitions,
heartbeat cadence, expiry).  Factory methods materialise configured
components so the facade (:class:`~repro.core.pipeline.LogLens`) and the
service share one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..parsing.datatypes import DEFAULT_REGISTRY, Datatype, DatatypeRegistry
from ..parsing.logmine import PatternDiscoverer
from ..parsing.timestamps import TimestampDetector
from ..parsing.tokenizer import SplitRule, Tokenizer
from ..sequence.id_discovery import IdFieldDiscovery
from ..sequence.learner import SequenceModelLearner

__all__ = ["CustomDatatype", "LogLensConfig"]


@dataclass(frozen=True)
class CustomDatatype:
    """A user datatype for the config surface (paper, Table I is a
    default set users may extend).

    ``parents`` declares the coverage lattice position; most custom token
    classes are refinements of ``NOTSPACE``.
    """

    name: str
    pattern: str
    generality: int = 15
    parents: Tuple[str, ...] = ("NOTSPACE",)


@dataclass
class LogLensConfig:
    """All LogLens knobs with paper-faithful defaults."""

    # ------------------------------------------------------------ parsing
    #: Delimiter characters; ``None`` means all whitespace.
    delimiters: Optional[str] = None
    #: Regex split-rule sources (capture groups become sub-tokens).
    split_rules: List[str] = field(default_factory=list)
    #: Extra datatypes beyond Table I's defaults.
    custom_datatypes: List[CustomDatatype] = field(default_factory=list)
    #: Extra SimpleDateFormat timestamp formats beyond the built-in 89.
    extra_timestamp_formats: List[str] = field(default_factory=list)
    #: Timestamp optimisations (Section VI-A ablation switches).
    timestamp_cache: bool = True
    timestamp_filter: bool = True

    # ---------------------------------------------------------- discovery
    #: LogMine clustering threshold.
    max_dist: float = 0.3
    #: Token scores (identical / same-datatype).
    k1: float = 1.0
    k2: float = 0.5
    #: Apply the ``key = value`` field renaming heuristics.
    rename_heuristics: bool = True

    # ----------------------------------------------------------- sequence
    #: ID discovery: minimum distinct ID values evidencing a field group.
    id_min_support: int = 2
    #: ID discovery: minimum patterns an ID field must link.
    id_min_patterns: int = 2
    #: ID discovery: values on more logs than this are not identifiers.
    id_max_logs_per_content: int = 100
    #: Minimum training events per automaton.
    min_events: int = 2
    #: Fractional widening of learned duration bounds.
    duration_slack: float = 0.0

    # ------------------------------------------------------------ runtime
    num_partitions: int = 4
    heartbeat_period_steps: int = 1
    heartbeats_enabled: bool = True
    expiry_factor: float = 2.0
    min_expiry_millis: int = 1000

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def make_registry(self) -> DatatypeRegistry:
        """The datatype registry: Table I defaults + custom datatypes.

        Returns the shared default registry when no custom datatypes are
        configured (cheapest and keeps inference memos hot).
        """
        if not self.custom_datatypes:
            return DEFAULT_REGISTRY
        registry = DatatypeRegistry()
        for custom in self.custom_datatypes:
            registry.register(
                Datatype(
                    custom.name,
                    custom.pattern,
                    custom.generality,
                    parents=tuple(custom.parents),
                )
            )
        return registry

    def make_timestamp_detector(self) -> TimestampDetector:
        detector = TimestampDetector(
            use_cache=self.timestamp_cache,
            use_filter=self.timestamp_filter,
        )
        for sdf in self.extra_timestamp_formats:
            detector.add_format(sdf)
        return detector

    def make_tokenizer(self) -> Tokenizer:
        return Tokenizer(
            delimiters=self.delimiters,
            split_rules=[SplitRule(src) for src in self.split_rules],
            registry=self.make_registry(),
            timestamp_detector=self.make_timestamp_detector(),
        )

    def make_discoverer(self) -> PatternDiscoverer:
        return PatternDiscoverer(
            max_dist=self.max_dist,
            k1=self.k1,
            k2=self.k2,
            registry=self.make_registry(),
            rename_heuristics=self.rename_heuristics,
        )

    def make_learner(self) -> SequenceModelLearner:
        return SequenceModelLearner(
            discovery=IdFieldDiscovery(
                min_support=self.id_min_support,
                min_patterns=self.id_min_patterns,
                max_logs_per_content=self.id_max_logs_per_content,
            ),
            min_events=self.min_events,
            duration_slack=self.duration_slack,
        )
