"""Per-source model management for heterogeneous deployments.

LogLens "collects heterogeneous logs from multiple sources" (Section
II-B) and partitions work by "same model, source" (Section V-B): each log
source gets its own pattern and sequence models, trained on that source's
normal runs.  :class:`MultiSourceLogLens` manages one fitted
:class:`~repro.core.pipeline.LogLens` per source behind a single API, and
routes mixed streams of ``(source, line)`` pairs to the right models.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .anomaly import Anomaly, AnomalyType, Severity
from .config import LogLensConfig
from .pipeline import LogLens

__all__ = ["MultiSourceLogLens"]


class MultiSourceLogLens:
    """One LogLens instance per source behind a single facade.

    Parameters
    ----------
    config:
        Shared configuration for every per-source instance; pass
        per-source configs to :meth:`fit_source` to override.
    strict:
        When True, detecting a stream from an unknown source raises;
        when False (default), its lines are reported as ``UNPARSED_LOG``
        anomalies tagged with the unknown source.
    """

    def __init__(
        self,
        config: Optional[LogLensConfig] = None,
        strict: bool = False,
    ) -> None:
        self.config = config if config is not None else LogLensConfig()
        self.strict = strict
        self._lenses: Dict[str, LogLens] = {}

    # ------------------------------------------------------------------
    def fit_source(
        self,
        source: str,
        training_logs: Sequence[str],
        config: Optional[LogLensConfig] = None,
    ) -> LogLens:
        """Train (or retrain) the models of one source."""
        lens = LogLens(config if config is not None else self.config)
        lens.fit(training_logs)
        self._lenses[source] = lens
        return lens

    def sources(self) -> List[str]:
        return sorted(self._lenses)

    def lens_for(self, source: str) -> LogLens:
        lens = self._lenses.get(source)
        if lens is None:
            raise KeyError("no models trained for source %r" % source)
        return lens

    def __contains__(self, source: str) -> bool:
        return source in self._lenses

    # ------------------------------------------------------------------
    def detect(
        self,
        source: str,
        logs: Iterable[str],
        flush_open_events: bool = True,
    ) -> List[Anomaly]:
        """Detect over one source's stream with that source's models."""
        if source not in self._lenses:
            if self.strict:
                raise KeyError("no models trained for source %r" % source)
            return [
                self._unknown_source_anomaly(source, raw) for raw in logs
            ]
        return self._lenses[source].detect(
            logs, flush_open_events=flush_open_events, source=source
        )

    def detect_mixed(
        self,
        tagged_logs: Iterable[Tuple[str, str]],
        flush_open_events: bool = True,
    ) -> List[Anomaly]:
        """Detect over an interleaved ``(source, line)`` stream.

        Lines are demultiplexed per source (each source keeps its arrival
        order) and every source runs against its own models.
        """
        by_source: Dict[str, List[str]] = {}
        for source, raw in tagged_logs:
            by_source.setdefault(source, []).append(raw)
        anomalies: List[Anomaly] = []
        for source in sorted(by_source):
            anomalies.extend(
                self.detect(
                    source,
                    by_source[source],
                    flush_open_events=flush_open_events,
                )
            )
        return anomalies

    @staticmethod
    def _unknown_source_anomaly(source: str, raw: str) -> Anomaly:
        return Anomaly(
            type=AnomalyType.UNPARSED_LOG,
            reason="no models trained for source %r" % source,
            logs=[raw],
            source=source,
            severity=Severity.WARNING,
        )
