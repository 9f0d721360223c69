"""The storage spec: which backend a service's stores run on.

The paper's deployment persists archived logs, models, and anomalies in
Elasticsearch so they survive restarts and scale past RAM (Section
II-B).  Every store of :mod:`repro.service.storage` runs on one of two
backends:

* ``memory`` — in-process tables (the default);
* ``sqlite:PATH`` — fixed tables in one shared WAL-mode database file
  (:mod:`repro.service.sqlite_store`: restart-durable, RAM-unbounded,
  ad-hoc SQL).

Backend selection is a one-line spec string threaded from the CLI
(``--storage``) through :class:`~repro.service.loglens_service
.LogLensService` construction down to each store; parse it with
:func:`parse_storage_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "StorageConfig",
    "parse_storage_spec",
]


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
