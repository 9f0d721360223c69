"""The storage-backend seam: one protocol, pluggable engines.

The paper's deployment persists archived logs, models, and anomalies in
Elasticsearch so they survive restarts and scale past RAM (Section
II-B).  This module names the query surface those stores actually rely
on as a :class:`StorageBackend` protocol, so the document collection
behind :class:`~repro.service.storage.LogStorage` /
:class:`~repro.service.storage.AnomalyStorage` can be swapped:

* ``memory`` — :class:`~repro.service.storage.DocumentStore`, the
  indexed in-memory store (fast default, equivalence-test oracle);
* ``sqlite:PATH`` — :class:`~repro.service.sqlite_store.SQLiteDocumentStore`
  on a shared WAL-mode database file (restart-durable, RAM-unbounded,
  ad-hoc SQL).

Backend selection is a one-line spec string threaded from the CLI
(``--storage``) through :class:`~repro.service.loglens_service
.LogLensService` construction down to each store; parse it with
:func:`parse_storage_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

__all__ = [
    "StorageBackend",
    "StorageConfig",
    "parse_storage_spec",
]


@runtime_checkable
class StorageBackend(Protocol):
    """The document-collection surface every backend must provide.

    Extracted from :class:`~repro.service.storage.DocumentStore` — the
    in-memory store *is* the reference implementation, and the
    cross-backend equivalence suite holds every other backend to its
    observable behaviour:

    * ``insert``/``insert_many`` assign monotonically increasing
      integer ``_id`` values starting at 0 and stamp them on the stored
      documents; ``clear`` does **not** reset the counter.
    * ``query(match=...)`` filters on exact field equality
      (``doc.get(field) == value``, so a ``None`` probe matches missing
      fields too) and returns documents in insertion order.
    * ``query(range_=(field, lo, hi))`` returns documents whose field
      value lies in the inclusive range (``None`` bounds are open;
      documents missing the field, or whose value cannot be compared
      against the bounds, are skipped) ordered by the range field, ties
      in insertion order.
    * ``limit`` truncates after that ordering is established.
    * ``distinct`` lists a field's values in first-insertion order
      (missing fields contribute ``None``).
    * Returned documents are read-only views; ``dict(doc)`` copies.
    """

    def insert(self, doc: Dict[str, Any]) -> int: ...

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]: ...

    def get(self, doc_id: int) -> Optional[Dict[str, Any]]: ...

    def query(
        self,
        match: Optional[Dict[str, Any]] = None,
        range_: Optional[Tuple[str, Optional[float], Optional[float]]] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]: ...

    def distinct(self, field: str) -> List[Any]: ...

    def count(self, match: Optional[Dict[str, Any]] = None) -> int: ...

    def clear(self) -> None: ...


@dataclass(frozen=True)
class StorageConfig:
    """A parsed ``--storage`` spec.

    ``kind`` is ``"memory"`` or ``"sqlite"``; ``path`` is the database
    file for the SQLite backend (``None`` for memory).
    """

    kind: str = "memory"
    path: Optional[str] = None

    @property
    def persistent(self) -> bool:
        return self.kind == "sqlite"

    def describe(self) -> str:
        if self.kind == "memory":
            return "memory"
        return "sqlite:%s" % self.path


def parse_storage_spec(
    spec: Union[str, StorageConfig, None]
) -> StorageConfig:
    """Parse ``memory`` / ``sqlite:PATH`` into a :class:`StorageConfig`.

    ``None`` and already-parsed configs pass through; anything else
    raises ``ValueError`` with the accepted grammar.
    """
    if spec is None:
        return StorageConfig()
    if isinstance(spec, StorageConfig):
        return spec
    text = spec.strip()
    if text == "memory":
        return StorageConfig(kind="memory")
    if text.startswith("sqlite:"):
        path = text[len("sqlite:"):]
        if not path:
            raise ValueError(
                "sqlite storage spec needs a database path: 'sqlite:PATH'"
            )
        return StorageConfig(kind="sqlite", path=path)
    raise ValueError(
        "unknown storage spec %r; expected 'memory' or 'sqlite:PATH'"
        % (spec,)
    )
