"""Append-only alert history: a keyed document table.

Every lifecycle transition the evaluator emits is recorded here before
delivery is attempted, so the history is the source of truth for "what
fired when" even if every sink is down.  The events live in the
``alerts`` document table (:func:`~repro.service.storage.document_table`,
keys ``rule`` and ``state``): in memory by default, or in the ``alerts``
table of the service's SQLite database when running on ``sqlite:PATH``
storage, where ``loglens alerts history`` reads it back.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["AlertHistory"]


class AlertHistory:
    """Append-only record of alert lifecycle events."""

    def __init__(
        self,
        metrics: Optional[Any] = None,
        database: Optional[Any] = None,
    ) -> None:
        # Imported lazily: the alerts package must stay importable
        # from repro.service.config without a circular import.
        from ..service.storage import document_table

        self._table = document_table(
            "alerts", ("rule", "state"), metrics, database
        )

    def append(self, event_dict: Dict[str, Any]) -> int:
        """Record one event document; returns the assigned id."""
        return self._table.insert_many([event_dict])[0]

    def all(self) -> List[Dict[str, Any]]:
        """Every recorded event, in append order."""
        return self._table.all()

    def count(self) -> int:
        return self._table.count()
