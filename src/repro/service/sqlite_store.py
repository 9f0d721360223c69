"""SQLite (WAL mode) persistent storage backend.

The paper's deployment keeps archived logs, models, and anomalies in
Elasticsearch so they survive restarts and scale past RAM.  This module
is the reproduction's equivalent: every store of a service shares one
:class:`SQLiteDatabase` file in write-ahead-log mode, so a service can
stop, restart from the database, and resume replay / model rebuilds
from persisted history.

**Fixed tables.** Each store owns one table whose columns and indexes
are created when it opens:

* ``logs(_id INTEGER PRIMARY KEY, source TEXT NOT NULL,
  timestamp_millis INTEGER, raw TEXT NOT NULL)`` with one
  ``(source, timestamp_millis)`` index (:class:`SQLiteLogTable`);
* one keyed document table per document store — ``_id``, one column
  per declared key, ``timestamp_millis`` and the whole document as JSON
  in ``_doc``, with an index per key and one on the time
  (:class:`SQLiteDocumentTable`: ``anomalies`` keyed by ``type`` and
  ``source``, ``alerts`` by ``rule`` and ``state``);
* ``models`` and ``model_meta`` (:class:`SQLiteModelJournal`).

Each table answers exactly what its in-memory twin in
:mod:`repro.service.storage` answers, order and ``_id`` included.  An
existing table with other columns, or a file holding the ``_store_meta``
table of the earlier schemaless layout, is refused with
:class:`~repro.errors.StorageLayoutError`: nothing is appended to the
refused table, and a ``_store_meta`` file is not written at all.

**Load once, query many.** Following logservatory's design (PAPERS.md:
LogLead's load-once/query-many pattern), ingested windows are written
once and arbitrarily many queries run against the same database —
including ad-hoc read-only SQL via :func:`run_readonly_sql` (the
``loglens query`` escape hatch), which opens a separate
``PRAGMA query_only`` connection so it can never mutate the store.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import StorageLayoutError
from ..obs import MetricsRegistry, get_registry
from .storage import ReadOnlyDocument, check_document

__all__ = [
    "SQLiteDatabase",
    "SQLiteDocumentTable",
    "SQLiteLogTable",
    "SQLiteModelJournal",
    "run_readonly_sql",
]


def _quote(identifier: str) -> str:
    """Quote an SQL identifier (table/column name)."""
    return '"%s"' % identifier.replace('"', '""')


def run_readonly_sql(
    path: str, query: str, params: Sequence[Any] = ()
) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Run one ad-hoc SQL statement read-only; ``(columns, rows)``.

    Opens its own connection with ``PRAGMA query_only=ON``, so any
    statement that would mutate the database fails with
    ``sqlite3.OperationalError`` instead of writing.  Safe to run
    against a database another process is actively writing (WAL).
    """
    conn = sqlite3.connect(str(path))
    try:
        conn.execute("PRAGMA query_only=ON")
        cursor = conn.execute(query, tuple(params))
        columns = (
            [d[0] for d in cursor.description] if cursor.description else []
        )
        rows = [tuple(row) for row in cursor.fetchall()]
    finally:
        conn.close()
    return columns, rows


class SQLiteDatabase:
    """One WAL-mode database file shared by all stores of a service.

    Owns the single writable connection and the lock serialising access
    to it (SQLite connections are not safely shareable across threads
    without one).  ``synchronous=NORMAL`` is the standard WAL pairing:
    commits are durable against application crashes, and the WAL is
    replayed on reopen after a power loss.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.isolation_level = None  # explicit transactions only
        if self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE name = '_store_meta'"
        ).fetchone():
            # The earlier schemaless layout: refuse it untouched, before
            # the journal mode below is switched.
            self._conn.close()
            raise StorageLayoutError(self.path, "_store_meta")
        self.lock = threading.RLock()
        self._closed = False
        with self.lock:
            #: The journal mode actually in effect ("wal" on real files;
            #: in-memory databases report "memory").
            self.journal_mode = self._conn.execute(
                "PRAGMA journal_mode=WAL"
            ).fetchone()[0]
            self._conn.execute("PRAGMA synchronous=NORMAL")

    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        """Run one statement on the shared connection (caller holds lock)."""
        return self._conn.execute(sql, tuple(params))

    def executemany(
        self, sql: str, rows: Iterable[Sequence[Any]]
    ) -> sqlite3.Cursor:
        return self._conn.executemany(sql, rows)

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """``BEGIN IMMEDIATE`` ... ``COMMIT`` (rollback on error)."""
        with self.lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    def sql(
        self, query: str, params: Sequence[Any] = ()
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        """The read-only ad-hoc SQL surface (see :func:`run_readonly_sql`)."""
        return run_readonly_sql(self.path, query, params)

    def close(self) -> None:
        """Checkpoint the WAL into the main file and close the connection."""
        if self._closed:
            return
        with self.lock:
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:  # pragma: no cover - best effort
                pass
            self._conn.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


def _open_table(
    database: SQLiteDatabase,
    table: str,
    columns: Sequence[Tuple[str, str]],
    indexes: Sequence[Tuple[str, str]],
) -> int:
    """Create ``table`` and its indexes if absent; its row count.

    ``columns`` are ``(name, declaration)`` pairs and ``indexes``
    ``(index name, indexed column list)`` pairs.  An existing table
    whose column names differ is refused (caller holds the lock).
    """
    database.execute(
        "CREATE TABLE IF NOT EXISTS %s (%s)"
        % (
            _quote(table),
            ", ".join(
                ("%s %s" % (_quote(name), decl)).rstrip()
                for name, decl in columns
            ),
        )
    )
    found = [
        info[1]
        for info in database.execute("PRAGMA table_info(%s)" % _quote(table))
    ]
    if found != [name for name, _ in columns]:
        raise StorageLayoutError(database.path, table)
    for index, indexed in indexes:
        database.execute(
            "CREATE INDEX IF NOT EXISTS %s ON %s (%s)"
            % (_quote(index), _quote(table), indexed)
        )
    return database.execute(
        "SELECT COUNT(*) FROM %s" % _quote(table)
    ).fetchone()[0]


class SQLiteLogTable:
    """The archive as the fixed ``logs`` table.

    Each batch is one ``executemany`` of the caller's
    ``(raw, source, timestamp_millis)`` tuples in one transaction;
    SQLite assigns ``_id`` in arrival order.  ``count()`` reads a
    running total, so no write scans the table.
    """

    def __init__(
        self,
        database: SQLiteDatabase,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._db = database
        obs = metrics if metrics is not None else get_registry()
        self._g_docs = obs.gauge("storage.documents", store="logs")
        with database.lock:
            self._count: int = _open_table(
                database,
                "logs",
                [
                    ("_id", "INTEGER PRIMARY KEY"),
                    ("source", "TEXT NOT NULL"),
                    ("timestamp_millis", "INTEGER"),
                    ("raw", "TEXT NOT NULL"),
                ],
                [("logs_source_time", "source, timestamp_millis")],
            )
        self._g_docs.set(self._count)

    def store_batch(
        self, entries: Iterable[Tuple[str, str, Optional[int]]]
    ) -> None:
        with self._db.lock:
            with self._db.transaction():
                added = self._db.executemany(
                    "INSERT INTO logs (raw, source, timestamp_millis) "
                    "VALUES (?, ?, ?)",
                    entries,
                ).rowcount
            self._count += added
            self._g_docs.set(self._count)

    def _column(self, sql: str, params: Sequence[Any] = ()) -> List[Any]:
        with self._db.lock:
            return [row[0] for row in self._db.execute(sql, params)]

    def by_source(self, source: str) -> List[str]:
        return self._column(
            "SELECT raw FROM logs WHERE source = ? ORDER BY _id", (source,)
        )

    def sources(self) -> List[str]:
        return self._column(
            "SELECT source FROM logs GROUP BY source ORDER BY MIN(_id)"
        )

    def time_range(
        self, source: str, start_millis: int, end_millis: int
    ) -> List[str]:
        return self._column(
            "SELECT raw FROM logs WHERE source = ? AND timestamp_millis "
            "BETWEEN ? AND ? ORDER BY timestamp_millis, _id",
            (source, start_millis, end_millis),
        )

    def count(self, source: Optional[str] = None) -> int:
        if source is None:
            with self._db.lock:
                return self._count
        return self._column(
            "SELECT COUNT(*) FROM logs WHERE source = ?", (source,)
        )[0]


class SQLiteDocumentTable:
    """A keyed document table persisted in one fixed SQL table.

    Columns: ``_id INTEGER PRIMARY KEY AUTOINCREMENT``, one untyped
    column per key in ``keys`` (so SQLite compares them as Python does),
    ``timestamp_millis INTEGER`` and ``_doc``, the whole document as
    JSON with its ``_id``.  ``_id`` counts from 0 in insertion order,
    resumes after a reopen and is never reused, not even after
    :meth:`clear` (``sqlite_sequence`` keeps the largest).  Documents
    must be JSON-serialisable (tuples come back as lists) and pass
    :func:`~repro.service.storage.check_document`.
    """

    def __init__(
        self,
        database: SQLiteDatabase,
        name: str,
        keys: Sequence[str],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._db = database
        self._table = _quote(name)
        self._keys = tuple(keys)
        obs = metrics if metrics is not None else get_registry()
        self._g_docs = obs.gauge("storage.documents", store=name)
        columns = (
            [("_id", "INTEGER PRIMARY KEY AUTOINCREMENT")]
            + [(key, "") for key in keys]
            + [("timestamp_millis", "INTEGER"), ("_doc", "TEXT NOT NULL")]
        )
        self._insert_sql = "INSERT INTO %s VALUES (%s)" % (
            self._table, ", ".join("?" * len(columns))
        )
        with database.lock:
            #: Documents in the table.
            self._count: int = _open_table(
                database,
                name,
                columns,
                [("%s_%s" % (name, key), _quote(key)) for key in keys]
                + [("%s_time" % name, "timestamp_millis")],
            )
            last = database.execute(
                "SELECT seq FROM sqlite_sequence WHERE name = ?", (name,)
            ).fetchone()
            self._next_id: int = 0 if last is None else last[0] + 1
        self._g_docs.set(self._count)

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]:
        keys = self._keys
        with self._db.lock:
            first = next_id = self._next_id
            rows = []
            for doc in docs:
                check_document(doc, keys)
                stored = dict(doc)
                stored["_id"] = next_id
                rows.append(
                    (next_id,)
                    + tuple(stored.get(key) for key in keys)
                    + (stored.get("timestamp_millis"), json.dumps(stored))
                )
                next_id += 1
            if rows:
                with self._db.transaction():
                    self._db.executemany(self._insert_sql, rows)
                self._count += len(rows)
                self._next_id = next_id
                self._g_docs.set(self._count)
        return list(range(first, next_id))

    def _docs(self, where: str, params: Sequence[Any] = ()) -> List[Any]:
        with self._db.lock:
            rows = self._db.execute(
                "SELECT _doc FROM %s %s" % (self._table, where), params
            ).fetchall()
        return [ReadOnlyDocument(json.loads(row[0])) for row in rows]

    def all(self) -> List[Dict[str, Any]]:
        return self._docs("ORDER BY _id")

    def where(self, key: str, value: Any) -> List[Dict[str, Any]]:
        """Documents whose ``key`` equals ``value``, in insertion order."""
        if key not in self._keys:
            raise KeyError(key)
        return self._docs("WHERE %s IS ? ORDER BY _id" % _quote(key), (value,))

    def in_window(
        self, start_millis: int, end_millis: int
    ) -> List[Dict[str, Any]]:
        """Documents inside [start, end], in timestamp-then-insertion
        order."""
        return self._docs(
            "WHERE timestamp_millis BETWEEN ? AND ? "
            "ORDER BY timestamp_millis, _id",
            (start_millis, end_millis),
        )

    def count_in_window(
        self,
        start_millis: int,
        end_millis: int,
        key: Optional[str] = None,
        value: Any = None,
    ) -> int:
        """How many documents :meth:`in_window` returns, or how many of
        them have ``key`` equal to ``value`` when ``key`` is given.

        One ``COUNT(*)`` on the time index that decodes no ``_doc``.
        The unary ``+`` keeps the key's own index out of the plan: on
        that index the count would visit every document with the value
        ever stored, so its cost would grow with the table instead of
        the window.
        """
        sql = (
            "SELECT COUNT(*) FROM %s WHERE timestamp_millis BETWEEN ? AND ?"
            % self._table
        )
        params: List[Any] = [start_millis, end_millis]
        if key is not None:
            if key not in self._keys:
                raise KeyError(key)
            sql += " AND +%s IS ?" % _quote(key)
            params.append(value)
        with self._db.lock:
            return self._db.execute(sql, params).fetchone()[0]

    def count(self) -> int:
        with self._db.lock:
            return self._count

    def clear(self) -> None:
        """Drop every document; later inserts keep counting ``_id``."""
        with self._db.lock:
            with self._db.transaction():
                self._db.execute("DELETE FROM %s" % self._table)
            self._count = 0
            self._g_docs.set(0)


class SQLiteModelJournal:
    """Write-through persistence for :class:`ModelStorage`.

    The in-memory version map stays the source of truth for reads (the
    hot path); every mutation is mirrored into two tables so a restart
    reconstructs the exact version history — including the stable
    version numbering across pruning (``model_meta.version_base``).
    """

    def __init__(self, database: SQLiteDatabase) -> None:
        self._db = database
        with self._db.lock:
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS models ("
                "name TEXT NOT NULL, version INTEGER NOT NULL, "
                "doc TEXT NOT NULL, PRIMARY KEY (name, version))"
            )
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS model_meta ("
                "name TEXT PRIMARY KEY, version_base INTEGER NOT NULL)"
            )

    def load(self) -> Tuple[Dict[str, List[Dict[str, Any]]], Dict[str, int]]:
        """Rebuild ``(versions, version_base)`` from the database."""
        versions: Dict[str, List[Dict[str, Any]]] = {}
        base: Dict[str, int] = {}
        with self._db.lock:
            for name, version_base in self._db.execute(
                "SELECT name, version_base FROM model_meta"
            ).fetchall():
                base[name] = int(version_base)
            for name, _version, doc in self._db.execute(
                "SELECT name, version, doc FROM models ORDER BY name, version"
            ).fetchall():
                versions.setdefault(name, []).append(json.loads(doc))
        return versions, base

    def append(
        self, name: str, version: int, model_dict: Dict[str, Any]
    ) -> None:
        with self._db.transaction():
            self._db.execute(
                "INSERT OR REPLACE INTO models (name, version, doc) "
                "VALUES (?, ?, ?)",
                (name, version, json.dumps(model_dict)),
            )

    def prune(self, name: str, version_base: int) -> None:
        with self._db.transaction():
            self._db.execute(
                "DELETE FROM models WHERE name = ? AND version <= ?",
                (name, version_base),
            )
            self._db.execute(
                "INSERT OR REPLACE INTO model_meta (name, version_base) "
                "VALUES (?, ?)",
                (name, version_base),
            )

    def delete(self, name: str) -> None:
        with self._db.transaction():
            self._db.execute("DELETE FROM models WHERE name = ?", (name,))
            self._db.execute(
                "DELETE FROM model_meta WHERE name = ?", (name,)
            )
