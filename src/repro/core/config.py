"""Configuration of LogLens' model builder.

One :class:`LogLensConfig` object describes how models are built: the
preprocessing front-end's user extensions (split rules, datatypes,
timestamp formats) and pattern discovery's clustering distance.  Every
other parsing and learning parameter takes its component's own default.
Factory methods materialise configured components so the facade
(:class:`~repro.core.pipeline.LogLens`) and the service share one source
of truth.  What runs the models (partitions, heartbeats, storage, ...)
lives in :class:`~repro.service.config.ServiceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..parsing.datatypes import DEFAULT_REGISTRY, Datatype, DatatypeRegistry
from ..parsing.logmine import PatternDiscoverer
from ..parsing.timestamps import TimestampDetector
from ..parsing.tokenizer import SplitRule, Tokenizer
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
    """The model builder's settings, with paper-faithful defaults."""

    #: Regex split-rule sources (capture groups become sub-tokens).
    split_rules: List[str] = field(default_factory=list)
    #: Extra datatypes beyond Table I's defaults.
    custom_datatypes: List[CustomDatatype] = field(default_factory=list)
    #: Extra SimpleDateFormat timestamp formats beyond the built-in 89.
    extra_timestamp_formats: List[str] = field(default_factory=list)
    #: LogMine clustering threshold.
    max_dist: float = 0.3

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

    def make_tokenizer(self) -> Tokenizer:
        detector = TimestampDetector()
        for sdf in self.extra_timestamp_formats:
            detector.add_format(sdf)
        return Tokenizer(
            split_rules=[SplitRule(src) for src in self.split_rules],
            registry=self.make_registry(),
            timestamp_detector=detector,
        )

    def make_discoverer(self) -> PatternDiscoverer:
        return PatternDiscoverer(
            max_dist=self.max_dist, registry=self.make_registry()
        )

    def make_learner(self) -> SequenceModelLearner:
        return SequenceModelLearner()
