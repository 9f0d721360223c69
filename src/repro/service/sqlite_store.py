"""SQLite (WAL mode) persistent storage backend.

The paper's deployment keeps archived logs, models, and anomalies in
Elasticsearch so they survive restarts and scale past RAM.  This module
is the reproduction's equivalent: every store of a service shares one
:class:`SQLiteDatabase` file in write-ahead-log mode, so a service can
stop, restart from the database, and resume replay / model rebuilds
from persisted history.

**Equivalence contract.** :class:`SQLiteDocumentStore` implements the
:class:`~repro.service.backends.StorageBackend` protocol with the same
observable behaviour as the in-memory
:class:`~repro.service.storage.DocumentStore` (the equivalence-test
oracle): ``_id`` assignment, insertion-order ``match`` results,
field-ordered ``range_`` results with insertion-order ties, ``None``
conflation of missing fields, and the poison-fallback semantics for
awkward values.  Documents must be JSON-serialisable (tuples come back
as lists).

**How documents map to SQL.** Each store owns one table named after it
(``logs``, ``anomalies``): an ``_id INTEGER PRIMARY KEY``, the full
document as JSON in ``_doc``, and one real column per top-level scalar
field, added lazily by ``ALTER TABLE`` as fields appear.  Match/range
queries run against those columns with lazily created SQL indexes
(mirroring the in-memory store's lazy secondary indexes); batch ingest
is a single ``executemany`` inside one transaction.  Fields that ever
hold a non-scalar value — or mix numeric and text values, which Python
and SQLite order differently — are flagged in a meta table and queries
naming them fall back to a Python-side scan with exactly the in-memory
store's linear semantics, never an error.

**Load once, query many.** Following logservatory's design (PAPERS.md:
LogLead's load-once/query-many pattern), ingested windows are written
once and arbitrarily many queries run against the same database —
including ad-hoc read-only SQL via :func:`run_readonly_sql` (the
``loglens query`` escape hatch), which opens a separate
``PRAGMA query_only`` connection so it can never mutate the store.
"""

from __future__ import annotations

import json
import re
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

from ..obs import MetricsRegistry, get_registry
from .storage import ReadOnlyDocument

__all__ = [
    "SQLiteDatabase",
    "SQLiteDocumentStore",
    "SQLiteModelJournal",
    "run_readonly_sql",
]

#: Store/table names the backend will accept.
_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
#: Field names that get a real SQL column (leading underscore excluded,
#: so ``_id`` / ``_doc`` can never collide with a document field).
_COLUMN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


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


def _classify(value: Any) -> Optional[str]:
    """A value's indexability kind: None (no info) / num / text / other."""
    if value is None:
        return None
    if isinstance(value, bool):
        # bool is an int to Python but orders against ints in ways SQL
        # storage classes don't reproduce faithfully; take the safe
        # linear-fallback road, like any other awkward value.
        return "other"
    if isinstance(value, int):
        return "num" if _INT64_MIN <= value <= _INT64_MAX else "other"
    if isinstance(value, float):
        return "num"
    if isinstance(value, str):
        return "text"
    return "other"


def _merge_kind(old: Optional[str], new: str) -> str:
    """Combine a field's recorded kind with a newly seen value's kind."""
    if old is None or old == new:
        return new
    if "other" in (old, new):
        return "other"
    return "mixed"  # num + text: Python cannot order them; neither may we


def _is_clean_scalar(value: Any) -> bool:
    return _classify(value) in ("num", "text")


class SQLiteDocumentStore:
    """A :class:`StorageBackend` persisted in one SQLite table.

    Parameters
    ----------
    database:
        The shared :class:`SQLiteDatabase`.
    name:
        Store/table name (``[a-z][a-z0-9_]*``); also labels the
        ``storage.*`` gauges.
    metrics:
        Registry for those gauges (defaults to the process registry).
    """

    def __init__(
        self,
        database: SQLiteDatabase,
        name: str = "documents",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                "store name must match [a-z][a-z0-9_]*; got %r" % (name,)
            )
        self._db = database
        self.name = name
        self._table = _quote(name)
        obs = metrics if metrics is not None else get_registry()
        self._g_docs = obs.gauge("storage.documents", store=name)
        self._g_sql_indexes = obs.gauge("storage.sql_indexes", store=name)
        #: field -> quoted column identifier, for fields that have one.
        self._columns: Dict[str, str] = {}
        #: field -> num/text/mixed/other (persisted; "mixed"/"other"
        #: permanently route queries to the linear fallback, exactly as
        #: a poisoned in-memory index does).
        self._kinds: Dict[str, str] = {}
        #: field -> position of its column in an insert row, or -1 for a
        #: name that can never be a column (checked once per name).
        self._slots: Dict[str, int] = {}
        self._indexed: set = set()
        with self._db.lock:
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS %s "
                "(_id INTEGER PRIMARY KEY, _doc TEXT NOT NULL)"
                % self._table
            )
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS _store_meta ("
                "store TEXT PRIMARY KEY, "
                "next_id INTEGER NOT NULL, "
                "field_kinds TEXT NOT NULL)"
            )
            row = self._db.execute(
                "SELECT next_id, field_kinds FROM _store_meta "
                "WHERE store = ?",
                (name,),
            ).fetchone()
            if row is None:
                self._next_id = 0
                self._db.execute(
                    "INSERT INTO _store_meta (store, next_id, field_kinds) "
                    "VALUES (?, 0, '{}')",
                    (name,),
                )
            else:
                self._next_id = int(row[0])
                self._kinds = json.loads(row[1])
            for info in self._db.execute(
                "PRAGMA table_info(%s)" % self._table
            ):
                column = info[1]
                if column not in ("_id", "_doc"):
                    self._columns[column] = _quote(column)
                    self._slots[column] = 1 + len(self._columns)
            #: Documents in the table: counted once here, then kept
            #: running by every write.
            self._count: int = self._db.execute(
                "SELECT COUNT(*) FROM %s" % self._table
            ).fetchone()[0]
            self._g_docs.set(self._count)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def insert(self, doc: Dict[str, Any]) -> int:
        """Store ``doc``; returns the assigned document id."""
        return self.insert_many([doc])[0]

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]:
        """Batched ingest: one pass, one ``executemany``, one transaction.

        The pass that builds each row classifies every value exactly
        once: it learns the field's kind, adds a column the first time
        an indexable field name carries a value, and fills the row.
        The ``storage.documents`` gauge reads a running count, so no
        write scans the table.
        """
        with self._db.lock:
            kinds = self._kinds
            slots = self._slots
            kinds_changed = False
            width = 2 + len(self._columns)
            first_id = next_id = self._next_id
            rows: List[List[Any]] = []
            for doc in docs:
                stored = dict(doc)
                row: List[Any] = [None] * width
                for fname, value in stored.items():
                    kind = _classify(value)
                    if kind is None:
                        continue
                    slot = slots.get(fname)
                    if slot is None:
                        slot = self._add_slot(fname)
                        if slot > 0:
                            row.append(None)
                            width += 1
                    if slot < 0:
                        kind = "other"  # no column possible; always fall back
                    elif kind != "other":
                        row[slot] = value
                    old = kinds.get(fname)
                    if old != kind:
                        merged = _merge_kind(old, kind)
                        if merged != old:
                            kinds[fname] = merged
                            kinds_changed = True
                stored["_id"] = row[0] = next_id
                row[1] = json.dumps(stored)
                rows.append(row)
                next_id += 1
            if not rows:
                return []
            for row in rows:
                if len(row) < width:  # built before a later column existed
                    row.extend([None] * (width - len(row)))
            insert_sql = "INSERT INTO %s (_id, _doc%s) VALUES (%s)" % (
                self._table,
                "".join(", " + quoted for quoted in self._columns.values()),
                ", ".join(["?"] * width),
            )
            with self._db.transaction():
                self._db.executemany(insert_sql, rows)
                if kinds_changed:
                    self._db.execute(
                        "UPDATE _store_meta SET next_id = ?, "
                        "field_kinds = ? WHERE store = ?",
                        (next_id, json.dumps(kinds), self.name),
                    )
                else:
                    self._db.execute(
                        "UPDATE _store_meta SET next_id = ? "
                        "WHERE store = ?",
                        (next_id, self.name),
                    )
            self._next_id = next_id
            self._count += len(rows)
            self._g_docs.set(self._count)
        return list(range(first_id, next_id))

    def _add_slot(self, fname: str) -> int:
        """First sighting of a field with a value: its row slot (lock held).

        Adds the field's column when the name can be one; ``-1`` marks a
        name that never gets a column (its queries always fall back).
        """
        if not _COLUMN_RE.match(fname):
            self._slots[fname] = -1
            return -1
        quoted = _quote(fname)
        self._db.execute(
            "ALTER TABLE %s ADD COLUMN %s" % (self._table, quoted)
        )
        self._columns[fname] = quoted
        slot = self._slots[fname] = 1 + len(self._columns)
        return slot

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, doc_id: int) -> Optional[Dict[str, Any]]:
        with self._db.lock:
            row = self._db.execute(
                "SELECT _doc FROM %s WHERE _id = ?" % self._table,
                (doc_id,),
            ).fetchone()
        return self._decode(row[0]) if row is not None else None

    def query(
        self,
        match: Optional[Dict[str, Any]] = None,
        range_: Optional[Tuple[str, Optional[float], Optional[float]]] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Match/range query with the in-memory store's exact semantics."""
        with self._db.lock:
            if self._needs_fallback(match, range_):
                return self._scan(match, range_, limit)
            where: List[str] = []
            args: List[Any] = []
            order = "_id"
            if match:
                for fname, value in match.items():
                    if fname not in self._columns:
                        if value is None:
                            continue  # no doc has the field; None matches
                        return []
                    self._ensure_index(fname)
                    column = self._columns[fname]
                    if value is None:
                        where.append("%s IS NULL" % column)
                    else:
                        where.append("%s = ?" % column)
                        args.append(value)
            if range_ is not None:
                fname, lo, hi = range_
                if fname not in self._columns:
                    return []
                self._ensure_index(fname)
                column = self._columns[fname]
                where.append("%s IS NOT NULL" % column)
                if lo is not None:
                    where.append("%s >= ?" % column)
                    args.append(lo)
                if hi is not None:
                    where.append("%s <= ?" % column)
                    args.append(hi)
                order = "%s, _id" % column
            sql = "SELECT _doc FROM %s" % self._table
            if where:
                sql += " WHERE " + " AND ".join(where)
            sql += " ORDER BY " + order
            if limit is not None:
                sql += " LIMIT ?"
                args.append(limit)
            rows = self._db.execute(sql, args).fetchall()
            return [self._decode(row[0]) for row in rows]

    def distinct(self, field: str) -> List[Any]:
        """Distinct values of ``field`` in first-insertion order."""
        with self._db.lock:
            if self._kinds.get(field) in ("other",):
                seen: List[Any] = []
                for doc in self._all_docs():
                    value = doc.get(field)
                    if value not in seen:
                        seen.append(value)
                return seen
            if field not in self._columns:
                return [None] if self._count else []
            column = self._columns[field]
            rows = self._db.execute(
                "SELECT %s, MIN(_id) AS first FROM %s "
                "GROUP BY %s ORDER BY first" % (column, self._table, column)
            ).fetchall()
            return [row[0] for row in rows]

    def count(self, match: Optional[Dict[str, Any]] = None) -> int:
        if match is None:
            with self._db.lock:
                return self._count
        return len(self.query(match=match))

    def clear(self) -> None:
        """Drop every document; ``_id`` assignment continues monotonically."""
        with self._db.lock:
            with self._db.transaction():
                self._db.execute("DELETE FROM %s" % self._table)
                # A cleared store has no documents, so no field is
                # poisoned any more — same reset the in-memory store
                # performs on its index maps.
                self._kinds = {}
                self._db.execute(
                    "UPDATE _store_meta SET field_kinds = '{}' "
                    "WHERE store = ?",
                    (self.name,),
                )
            self._count = 0
            self._g_docs.set(0)

    # ------------------------------------------------------------------
    # Fallback path (awkward values: identical to the in-memory scan)
    # ------------------------------------------------------------------
    def _needs_fallback(
        self,
        match: Optional[Dict[str, Any]],
        range_: Optional[Tuple[str, Optional[float], Optional[float]]],
    ) -> bool:
        if match:
            for fname, value in match.items():
                if self._kinds.get(fname) == "other":
                    return True
                if value is not None and not _is_clean_scalar(value):
                    return True
        if range_ is not None:
            fname, lo, hi = range_
            kind = self._kinds.get(fname)
            if kind in ("other", "mixed"):
                return True
            for bound in (lo, hi):
                if bound is None:
                    continue
                bound_kind = _classify(bound)
                if bound_kind not in ("num", "text"):
                    return True
                if kind is not None and bound_kind != kind:
                    return True
        return False

    def _all_docs(self) -> List[ReadOnlyDocument]:
        rows = self._db.execute(
            "SELECT _doc FROM %s ORDER BY _id" % self._table
        ).fetchall()
        return [self._decode(row[0]) for row in rows]

    def _scan(
        self,
        match: Optional[Dict[str, Any]],
        range_: Optional[Tuple[str, Optional[float], Optional[float]]],
        limit: Optional[int],
    ) -> List[ReadOnlyDocument]:
        """The linear fallback — ``DocumentStore._scan``'s semantics."""
        out: List[ReadOnlyDocument] = []
        for doc in self._all_docs():
            if match is not None and any(
                doc.get(k) != v for k, v in match.items()
            ):
                continue
            if range_ is not None:
                fname, lo, hi = range_
                value = doc.get(fname)
                if value is None:
                    continue
                try:
                    if lo is not None and value < lo:
                        continue
                    if hi is not None and value > hi:
                        continue
                except TypeError:
                    # A value the bounds can't compare against can't be
                    # inside the range; skip it rather than raise.
                    continue
            out.append(doc)
            if limit is not None and len(out) >= limit:
                break
        return out

    # ------------------------------------------------------------------
    def _ensure_index(self, fname: str) -> None:
        """Create the field's SQL index on first query (lock held)."""
        if fname in self._indexed:
            return
        index_name = _quote("ix_%s_%s" % (self.name, fname))
        self._db.execute(
            "CREATE INDEX IF NOT EXISTS %s ON %s (%s)"
            % (index_name, self._table, self._columns[fname])
        )
        self._indexed.add(fname)
        self._g_sql_indexes.set(len(self._indexed))

    @staticmethod
    def _decode(doc_json: str) -> ReadOnlyDocument:
        return ReadOnlyDocument(json.loads(doc_json))


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
