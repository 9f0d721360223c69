"""Temporal anomaly clustering (the analysis behind Figure 6).

In the SS7 case study, "anomaly clusters usually serve as indicators for
significant system events": the 994 spoofing anomalies form four groups
whose members are "temporally close to each other".  This module performs
that grouping — one-dimensional clustering over anomaly timestamps by gap
splitting: sorted anomalies belong to one cluster while consecutive gaps
stay below a threshold; a larger gap opens the next cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from .anomaly import Anomaly

__all__ = ["AnomalyCluster", "cluster_anomalies"]


@dataclass
class AnomalyCluster:
    """One temporal cluster of anomalies."""

    start_millis: int
    end_millis: int
    anomalies: List[Any] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.anomalies)

    @property
    def span_millis(self) -> int:
        return self.end_millis - self.start_millis

    @property
    def density_per_minute(self) -> float:
        """Anomalies per minute — high density marks attack bursts."""
        minutes = max(self.span_millis / 60_000.0, 1 / 60_000.0)
        return self.size / minutes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start_millis": self.start_millis,
            "end_millis": self.end_millis,
            "size": self.size,
            "span_millis": self.span_millis,
        }


def _timestamp(anomaly: Union[Anomaly, Dict[str, Any]]) -> Optional[int]:
    if isinstance(anomaly, Anomaly):
        return anomaly.timestamp_millis
    return anomaly.get("timestamp_millis")


def cluster_anomalies(
    anomalies: Iterable[Union[Anomaly, Dict[str, Any]]],
    max_gap_millis: int = 60_000,
    min_cluster_size: int = 1,
) -> List[AnomalyCluster]:
    """Group anomalies into temporal clusters.

    Parameters
    ----------
    anomalies:
        :class:`~repro.core.anomaly.Anomaly` objects or their
        ``to_dict()`` documents (both carry ``timestamp_millis``);
        entries without a timestamp are skipped.
    max_gap_millis:
        Consecutive anomalies further apart than this start a new
        cluster (default one minute).
    min_cluster_size:
        Clusters smaller than this are dropped — isolated anomalies are
        usually individual incidents, not "significant system events".

    Returns
    -------
    Clusters ordered by start time.
    """
    if max_gap_millis <= 0:
        raise ValueError("max_gap_millis must be positive")
    if min_cluster_size < 1:
        raise ValueError("min_cluster_size must be >= 1")
    stamped = [
        (ts, anomaly)
        for anomaly in anomalies
        if (ts := _timestamp(anomaly)) is not None
    ]
    stamped.sort(key=lambda pair: pair[0])
    clusters: List[AnomalyCluster] = []
    current: Optional[AnomalyCluster] = None
    for ts, anomaly in stamped:
        if current is None or ts - current.end_millis > max_gap_millis:
            current = AnomalyCluster(
                start_millis=ts, end_millis=ts, anomalies=[anomaly]
            )
            clusters.append(current)
        else:
            current.end_millis = ts
            current.anomalies.append(anomaly)
    return [c for c in clusters if c.size >= min_cluster_size]
