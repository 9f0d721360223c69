"""The LogLens facade: the library's primary public API.

:class:`LogLens` bundles the whole paper into two calls::

    lens = LogLens()
    lens.fit(training_logs)                 # unsupervised model building
    anomalies = lens.detect(streaming_logs) # stateless + stateful detection

``fit`` discovers GROK patterns (Section III-A), learns event automata
(Section IV-A), and keeps both models on the instance.  ``detect`` replays
logs through the stateless parser and the stateful sequence detector,
returning every anomaly.  For the real-time deployment, :meth:`to_service`
builds a fully wired :class:`~repro.service.loglens_service.LogLensService`
carrying the fitted models.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, List, Optional, Sequence, Union

from ..parsing.editing import PatternSetEditor
from ..parsing.parser import FastLogParser, ParsedLog, PatternModel
from ..sequence.detector import LogSequenceDetector
from ..sequence.model import SequenceModel
from ..service.config import ServiceConfig
from ..service.loglens_service import LogLensService
from ..service.model_builder import ModelBuilder
from .anomaly import Anomaly
from .config import LogLensConfig

__all__ = ["LogLens"]


class LogLens:
    """Train-once, detect-forever log anomaly detection.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.LogLensConfig`; defaults are the
        paper's settings.
    """

    def __init__(self, config: Optional[LogLensConfig] = None) -> None:
        self.config = config if config is not None else LogLensConfig()
        self._builder = ModelBuilder(
            tokenizer=self.config.make_tokenizer(),
            discoverer=self.config.make_discoverer(),
            learner=self.config.make_learner(),
        )
        self._pattern_model: Optional[PatternModel] = None
        self._sequence_model: Optional[SequenceModel] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, training_logs: Sequence[str]) -> "LogLens":
        """Learn both models from normal-run raw logs; returns ``self``."""
        built = self._builder.build(training_logs)
        self._pattern_model = built.pattern_model
        self._sequence_model = built.sequence_model
        return self

    @property
    def pattern_model(self) -> PatternModel:
        self._require_fitted()
        assert self._pattern_model is not None
        return self._pattern_model

    @property
    def sequence_model(self) -> SequenceModel:
        self._require_fitted()
        assert self._sequence_model is not None
        return self._sequence_model

    @property
    def patterns(self) -> List[str]:
        """The discovered GROK expressions, as strings."""
        return [p.to_string() for p in self.pattern_model.patterns]

    def edit_patterns(self) -> PatternSetEditor:
        """Open an editor over the fitted pattern set; commit with
        :meth:`apply_pattern_edits`."""
        return PatternSetEditor(self.pattern_model.patterns)

    def apply_pattern_edits(self, editor: PatternSetEditor) -> None:
        old = self.pattern_model
        self._pattern_model = PatternModel(
            editor.result(), version=old.version + 1, registry=old.registry
        )

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def parse(self, raw: str) -> Union[ParsedLog, Anomaly]:
        """Stateless parse of one raw line."""
        parser = self._make_parser()
        return parser.parse(raw)

    def detect(
        self,
        logs: Iterable[str],
        *,
        flush_open_events: bool = True,
        source: Optional[str] = None,
    ) -> List[Anomaly]:
        """Replay ``logs`` through both detectors; return all anomalies.

        ``flush_open_events`` closes in-flight events at end-of-input
        (the offline equivalent of heartbeat-driven expiry); disable it to
        reproduce the "without heartbeat" ablation of Figure 5.
        """
        parser = self._make_parser()
        detector = LogSequenceDetector(self.sequence_model)
        anomalies: List[Anomaly] = []
        for raw in logs:
            result = parser.parse(raw, source=source)
            if isinstance(result, Anomaly):
                anomalies.append(result)
            else:
                anomalies.extend(detector.process(result))
        if flush_open_events:
            anomalies.extend(detector.flush())
        return anomalies

    # ------------------------------------------------------------------
    # Deployment and persistence
    # ------------------------------------------------------------------
    def to_service(
        self,
        config: Optional[ServiceConfig] = None,
        **service_kwargs: Any,
    ) -> LogLensService:
        """A fully wired real-time service carrying the fitted models:
        :meth:`open_service`, then :meth:`publish_to`."""
        self._require_fitted()
        return self.publish_to(self.open_service(config, **service_kwargs))

    def open_service(
        self,
        config: Optional[ServiceConfig] = None,
        **service_kwargs: Any,
    ) -> LogLensService:
        """A wired service with no models yet; needs no fitted lens.

        The service parses with this facade's tokenizer and trains with
        its model builder, unless ``config`` (a
        :class:`~repro.service.config.ServiceConfig`, default settings
        when omitted) names its own.  Extra keyword arguments override
        individual config fields (e.g. ``retry_policy=`` /
        ``fault_plan=`` for chaos configurations, ``storage=`` for
        persistence, ``ingest=`` for front-door limits).  Opening the
        service opens its storage, so a refused database is reported
        before any model is fitted.
        """
        config = config if config is not None else ServiceConfig()
        if config.tokenizer_factory is None:
            service_kwargs.setdefault(
                "tokenizer_factory", self.config.make_tokenizer
            )
        if config.builder is None:
            service_kwargs.setdefault("builder", self._builder)
        config = config.replace(**service_kwargs)
        return LogLensService(config=config)

    def publish_to(self, service: LogLensService) -> LogLensService:
        """Roll the fitted models out to ``service``; returns it."""
        self._require_fitted()
        service.model_manager.register_built(
            # Re-wrap so the service's model storage holds version 1.
            _as_built(self.pattern_model, self.sequence_model)
        )
        service.model_manager.publish_all()
        service.flush_model_updates()
        return service

    def save(self, path: Union[str, Path]) -> None:
        """Persist both fitted models as one JSON document."""
        payload = {
            "pattern_model": self.pattern_model.to_dict(),
            "sequence_model": self.sequence_model.to_dict(),
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True))

    def load(self, path: Union[str, Path]) -> "LogLens":
        """Load models previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        self._pattern_model = PatternModel.from_dict(payload["pattern_model"])
        self._sequence_model = SequenceModel.from_dict(
            payload["sequence_model"]
        )
        return self

    # ------------------------------------------------------------------
    def _make_parser(self) -> FastLogParser:
        return FastLogParser(
            self.pattern_model, tokenizer=self.config.make_tokenizer()
        )

    def _require_fitted(self) -> None:
        if self._pattern_model is None or self._sequence_model is None:
            raise RuntimeError(
                "LogLens is not fitted; call fit() or load() first"
            )


def _as_built(pattern_model: PatternModel, sequence_model: SequenceModel):
    from ..service.model_builder import BuiltModels

    return BuiltModels(
        pattern_model=pattern_model, sequence_model=sequence_model
    )
