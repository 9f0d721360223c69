"""The visualization dashboard back-end (paper, Section II-B).

The paper's dashboard (built on Kibana over Elasticsearch) "combines
information from log storage, model storage, and anomaly storage to
present anomalies to the users", lets users "view anomalies and take
actions to rebuild or edit models", and supports "complex analysis by
issuing ad-hoc queries".

This module is that back-end: a query surface over the three stores
producing the dashboard's data structures (anomaly feed, per-type
histogram, timeline, model summary, the archived logs around an
anomaly) as plain JSON-ready values — the part of a dashboard a library
can own; any front-end can paint them — plus a terminal rendering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import MetricsRegistry, render_table
from ..parsing.parser import PatternModel
from ..sequence.model import SequenceModel
from .model_manager import PATTERN_MODEL, SEQUENCE_MODEL
from .storage import AnomalyStorage, LogStorage, ModelStorage

__all__ = ["AdHocQuery", "Dashboard"]


@dataclass
class AdHocQuery:
    """A composable ad-hoc query over anomaly documents.

    Mirrors the slice of the Elasticsearch query DSL LogLens uses: field
    equality, time ranges, free-text containment over evidence logs, and
    a custom predicate escape hatch.  All criteria AND together.
    """

    type: Optional[str] = None
    source: Optional[str] = None
    min_severity: Optional[int] = None
    time_range: Optional[Tuple[int, int]] = None
    text: Optional[str] = None
    predicate: Optional[Callable[[Dict[str, Any]], bool]] = None
    limit: Optional[int] = None

    def matches(self, doc: Dict[str, Any]) -> bool:
        if self.type is not None and doc.get("type") != self.type:
            return False
        if self.source is not None and doc.get("source") != self.source:
            return False
        if (
            self.min_severity is not None
            and doc.get("severity", 0) < self.min_severity
        ):
            return False
        if self.time_range is not None:
            ts = doc.get("timestamp_millis")
            if ts is None:
                return False
            lo, hi = self.time_range
            if not lo <= ts <= hi:
                return False
        if self.text is not None:
            haystack = " ".join(doc.get("logs", [])) + doc.get("reason", "")
            if self.text not in haystack:
                return False
        if self.predicate is not None and not self.predicate(doc):
            return False
        return True


class Dashboard:
    """Query/aggregation layer over the three LogLens stores."""

    def __init__(
        self,
        anomaly_storage: AnomalyStorage,
        log_storage: Optional[LogStorage] = None,
        model_storage: Optional[ModelStorage] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.anomaly_storage = anomaly_storage
        self.log_storage = log_storage
        self.model_storage = model_storage
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Ad-hoc queries
    # ------------------------------------------------------------------
    def query(self, query: Optional[AdHocQuery] = None) -> List[Dict]:
        """Run an ad-hoc query; no query returns everything."""
        docs = self.anomaly_storage.all()
        if query is None:
            return docs
        out = [d for d in docs if query.matches(d)]
        if query.limit is not None:
            out = out[: query.limit]
        return out

    # ------------------------------------------------------------------
    # Canned panels
    # ------------------------------------------------------------------
    def anomaly_feed(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Most recent anomalies first (the dashboard's landing panel)."""
        docs = self.anomaly_storage.all()
        docs.sort(
            key=lambda d: d.get("timestamp_millis") or 0, reverse=True
        )
        return docs[:limit]

    def counts_by_type(self) -> Dict[str, int]:
        return dict(
            Counter(d["type"] for d in self.anomaly_storage.all())
        )

    def timeline(self, bucket_millis: int = 60_000) -> List[Tuple[int, int]]:
        """(bucket start, anomaly count) pairs — the Figure-6 histogram."""
        if bucket_millis <= 0:
            raise ValueError("bucket_millis must be positive")
        buckets: Counter = Counter()
        for doc in self.anomaly_storage.all():
            ts = doc.get("timestamp_millis")
            if ts is None:
                continue
            buckets[(ts // bucket_millis) * bucket_millis] += 1
        return sorted(buckets.items())

    # ------------------------------------------------------------------
    # Model panel
    # ------------------------------------------------------------------
    def model_summary(self) -> Dict[str, Any]:
        """What the model-inspection panel shows before a human edit."""
        if self.model_storage is None:
            raise RuntimeError("dashboard has no model storage attached")
        summary: Dict[str, Any] = {}
        names = self.model_storage.names()
        if PATTERN_MODEL in names:
            model = PatternModel.from_dict(
                self.model_storage.get(PATTERN_MODEL)
            )
            summary["patterns"] = {
                "version": self.model_storage.latest_version(PATTERN_MODEL),
                "count": len(model),
                "expressions": [p.to_string() for p in model.patterns],
            }
        if SEQUENCE_MODEL in names:
            model = SequenceModel.from_dict(
                self.model_storage.get(SEQUENCE_MODEL)
            )
            summary["automata"] = {
                "version": self.model_storage.latest_version(SEQUENCE_MODEL),
                "count": len(model),
                "details": [
                    {
                        "automaton_id": a.automaton_id,
                        "states": sorted(a.states),
                        "begin": sorted(a.begin_states),
                        "end": sorted(a.end_states),
                        "duration_millis": [
                            a.min_duration_millis, a.max_duration_millis
                        ],
                        "trained_on_events": a.event_count,
                    }
                    for a in model
                ],
            }
        return summary

    # ------------------------------------------------------------------
    # Drill-down
    # ------------------------------------------------------------------
    def context_logs(
        self, anomaly: Dict[str, Any], window_millis: int = 30_000
    ) -> List[str]:
        """Raw archived logs around an anomaly (root-cause drill-down)."""
        if self.log_storage is None:
            raise RuntimeError("dashboard has no log storage attached")
        ts = anomaly.get("timestamp_millis")
        source = anomaly.get("source")
        if ts is None or source is None:
            return []
        return self.log_storage.time_range(
            source, ts - window_millis, ts + window_millis
        )

    # ------------------------------------------------------------------
    # Text rendering (terminal dashboard)
    # ------------------------------------------------------------------
    def render_text(self, feed_limit: int = 10) -> str:
        """A terminal rendering of the main panels."""
        lines = ["LogLens dashboard", "=" * 17, ""]
        by_type = self.counts_by_type()
        total = sum(by_type.values())
        lines.append("Anomalies: %d" % total)
        for kind, count in sorted(by_type.items()):
            lines.append("  %-24s %d" % (kind, count))
        lines.append("")
        lines.append("Recent:")
        for doc in self.anomaly_feed(limit=feed_limit):
            lines.append(
                "  [%s] %s %s — %s"
                % (
                    doc.get("timestamp_millis"),
                    doc.get("source") or "-",
                    doc["type"],
                    doc.get("reason", ""),
                )
            )
        if self.metrics is not None:
            lines.append("")
            lines.append("Metrics:")
            lines.append(render_table(self.metrics.to_dict()))
        return "\n".join(lines)

