"""Fleet service: one LogLens pipeline per log source.

The paper partitions work by "same model, source" (Section V-B): logs of
one source flow through detectors holding that source's models.  The
:class:`FleetService` realises that sharding at the service level — one
fully wired :class:`~repro.service.loglens_service.LogLensService` per
source, driven in lock step, with fleet-wide aggregation over anomaly
storages — the deployment shape of a LogLens installation monitoring a
heterogeneous estate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .loglens_service import LogLensService, ServiceReport, StepReport

__all__ = ["FleetService"]


class FleetService:
    """Manage per-source LogLens services behind one control surface.

    Parameters
    ----------
    service_factory:
        Builds one service per source; defaults to a 4-partition
        :class:`LogLensService`.  Inject a lambda to customise partition
        counts, heartbeat cadence, etc.
    """

    def __init__(
        self,
        service_factory: Optional[Callable[[], LogLensService]] = None,
    ) -> None:
        self._factory = service_factory or LogLensService
        self._services: Dict[str, LogLensService] = {}

    # ------------------------------------------------------------------
    def add_source(
        self, source: str, training_logs: Sequence[str]
    ) -> LogLensService:
        """Provision and train a pipeline for a new source."""
        if source in self._services:
            raise ValueError("source %r already provisioned" % source)
        service = self._factory()
        service.train(training_logs)
        self._services[source] = service
        return service

    def remove_source(self, source: str) -> None:
        if source not in self._services:
            raise KeyError("no pipeline for source %r" % source)
        del self._services[source]

    def sources(self) -> List[str]:
        return sorted(self._services)

    def service_for(self, source: str) -> LogLensService:
        service = self._services.get(source)
        if service is None:
            raise KeyError("no pipeline for source %r" % source)
        return service

    def __contains__(self, source: str) -> bool:
        return source in self._services

    # ------------------------------------------------------------------
    def ingest(self, source: str, raw_logs: Iterable[str]) -> int:
        """Route raw lines to their source's pipeline."""
        return self.service_for(source).ingest(raw_logs, source=source)

    def step(self) -> Dict[str, StepReport]:
        """Advance every pipeline one micro-batch period."""
        return {
            source: service.step()
            for source, service in sorted(self._services.items())
        }

    def run_until_drained(self, max_steps: int = 10000) -> None:
        for _ in range(max_steps):
            reports = self.step()
            if all(r.ingested == 0 for r in reports.values()):
                break

    def final_flush(self) -> int:
        return sum(
            service.final_flush() for service in self._services.values()
        )

    # ------------------------------------------------------------------
    # Fleet-wide views
    # ------------------------------------------------------------------
    def anomalies(self) -> List[Dict[str, Any]]:
        """All anomalies across the fleet, ordered by event time."""
        docs: List[Dict[str, Any]] = []
        for service in self._services.values():
            docs.extend(service.anomaly_storage.all())
        docs.sort(key=lambda d: d.get("timestamp_millis") or 0)
        return docs

    def anomaly_count(self) -> int:
        return sum(
            service.anomaly_storage.count()
            for service in self._services.values()
        )

    def reports(self) -> Dict[str, "ServiceReport"]:
        """Per-source :class:`ServiceReport` (counters only)."""
        return {
            source: service.report(include_metrics=False)
            for source, service in sorted(self._services.items())
        }

    def open_event_count(self) -> int:
        return sum(
            service.open_event_count()
            for service in self._services.values()
        )
