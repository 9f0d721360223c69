"""Log, model, and anomaly storage (Elasticsearch stand-in).

Section II-B of the paper assigns three storage roles to Elasticsearch:
archived raw logs organised by source (replayable for model rebuilds),
versioned models, and validated anomalies queryable from the dashboard.
LogLens asks each role a fixed question, so each store knows its columns
when it is built:

* :class:`LogStorage` holds ``(source, timestamp_millis, raw)`` rows,
  read back by source in arrival order or by source and time window;
* :class:`AnomalyStorage` (and
  :class:`~repro.alerts.history.AlertHistory`) is a keyed document
  table: whole documents read back in insertion order, by exact match
  on the keys declared at construction, or by a ``timestamp_millis``
  window;
* :class:`ModelStorage` holds versioned model dicts, persisted through
  an optional write-through ``journal``.

The log and document stores run in memory by default, or on the tables
of one shared :class:`~repro.service.sqlite_store.SQLiteDatabase` when
built with ``database=``.  Both backends answer every read identically,
order and ``_id`` included.  See ``docs/STORAGE.md``.

**Read views.** In-memory reads return the stored documents themselves
as immutable read views (:class:`dict` subclass that refuses mutation)
instead of copying every matching document; call ``dict(doc)`` for a
mutable copy.
"""

from __future__ import annotations

import copy
import threading
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import MetricsRegistry, get_registry

__all__ = [
    "ReadOnlyDocument",
    "LogStorage",
    "ModelStorage",
    "AnomalyStorage",
    "check_document",
    "document_table",
]


class ReadOnlyDocument(dict):
    """An immutable read view of a stored document.

    Stored documents are shared between the store's indexes and every
    query result, so in-place mutation would corrupt the store; copy
    with ``dict(doc)`` when a mutable document is needed.
    """

    def _readonly(self, *args, **kwargs):
        raise TypeError(
            "stored documents are read-only; copy with dict(doc)"
        )

    __setitem__ = _readonly
    __delitem__ = _readonly
    clear = _readonly
    pop = _readonly
    popitem = _readonly
    setdefault = _readonly
    update = _readonly

    def copy(self) -> Dict[str, Any]:
        """A mutable plain-dict copy."""
        return dict(self)


class MemoryLogTable:
    """The archive in memory: per-source lists of raw lines and times.

    Sources keep their first-arrival order and each source's rows their
    arrival order.  There is no time index: :meth:`time_range` filters
    one source and stable-sorts the hits, since only model rebuilds and
    the dashboard ask it.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        #: source -> (raw lines, timestamps), parallel lists.
        self._rows: Dict[str, Tuple[List[str], List[Optional[int]]]] = {}
        self._count = 0
        self._lock = threading.Lock()
        obs = metrics if metrics is not None else get_registry()
        self._g_docs = obs.gauge("storage.documents", store="logs")

    def store_batch(
        self, entries: Iterable[Tuple[str, str, Optional[int]]]
    ) -> None:
        rows = self._rows
        added = 0
        with self._lock:
            try:
                for raw, source, ts in entries:
                    pair = rows.get(source)
                    if pair is None:
                        pair = rows[source] = ([], [])
                    pair[0].append(raw)
                    pair[1].append(ts)
                    added += 1
            finally:  # a malformed entry still leaves count == rows kept
                self._count += added
                self._g_docs.set(self._count)

    def by_source(self, source: str) -> List[str]:
        with self._lock:
            pair = self._rows.get(source)
            return list(pair[0]) if pair is not None else []

    def sources(self) -> List[str]:
        with self._lock:
            return list(self._rows)

    def time_range(
        self, source: str, start_millis: int, end_millis: int
    ) -> List[str]:
        with self._lock:
            pair = self._rows.get(source)
            if pair is None:
                return []
            hits = [
                (ts, raw)
                for raw, ts in zip(*pair)
                if ts is not None and start_millis <= ts <= end_millis
            ]
        hits.sort(key=itemgetter(0))  # stable: ties keep arrival order
        return [raw for _, raw in hits]

    def count(self, source: Optional[str] = None) -> int:
        with self._lock:
            if source is None:
                return self._count
            pair = self._rows.get(source)
            return len(pair[0]) if pair is not None else 0


def check_document(doc: Dict[str, Any], keys: Sequence[str]) -> None:
    """Refuse ``doc`` unless its ``keys`` and ``timestamp_millis`` hold
    values both backends index alike.

    A key value must be None, a string or a number and a time None or a
    number (``bool`` counts as a number, NaN does not): SQLite binds
    exactly these, and they hash and compare in memory as SQLite
    compares them.  Tables check a whole batch before storing any of
    it, so a refused batch leaves the table as it was.
    """
    for key in keys:
        value = doc.get(key)
        if value is not None and (
            not isinstance(value, (str, int, float)) or value != value
        ):
            raise TypeError(
                "document key %r must be None, a string or a number, "
                "not %r" % (key, value)
            )
    ts = doc.get("timestamp_millis")
    if ts is not None and (
        not isinstance(ts, (int, float)) or ts != ts
    ):
        raise TypeError(
            "timestamp_millis must be None or a number, not %r" % (ts,)
        )


class MemoryDocumentTable:
    """A keyed document table in memory.

    Every insert stamps an ``_id`` on a read-only copy of the document
    and keeps two kinds of index current: a hash index per key declared
    at construction (``doc.get(key)``, so documents missing the key sit
    under ``None``) and a time index over ``timestamp_millis``
    (documents without one are left out of it).  ``_id`` counts from 0
    in insertion order and is never reused, not even after
    :meth:`clear`.
    """

    def __init__(
        self,
        name: str,
        keys: Sequence[str],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._keys = tuple(keys)
        self._next_id = 0
        self._lock = threading.Lock()
        obs = metrics if metrics is not None else get_registry()
        self._g_docs = obs.gauge("storage.documents", store=name)
        self._empty()

    def _empty(self) -> None:
        self._docs: List[ReadOnlyDocument] = []
        self._by_key: Dict[str, Dict[Any, List[ReadOnlyDocument]]] = {
            key: {} for key in self._keys
        }
        #: Timestamped documents sorted by time, ties in insertion order.
        self._times: List[int] = []
        self._timed: List[ReadOnlyDocument] = []

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]:
        keys = self._keys
        with self._lock:
            first = next_id = self._next_id
            batch = []
            for doc in docs:
                check_document(doc, keys)
                stored = ReadOnlyDocument(doc)
                dict.__setitem__(stored, "_id", next_id)
                next_id += 1
                batch.append(stored)
            stored_docs, times, timed = self._docs, self._times, self._timed
            indexes = list(self._by_key.items())
            for stored in batch:
                stored_docs.append(stored)
                for key, index in indexes:
                    value = stored.get(key)
                    bucket = index.get(value)
                    if bucket is None:
                        index[value] = [stored]
                    else:
                        bucket.append(stored)
                ts = stored.get("timestamp_millis")
                if ts is None:
                    continue
                if not times or ts >= times[-1]:  # the common, in-order case
                    times.append(ts)
                    timed.append(stored)
                else:
                    pos = bisect_right(times, ts)
                    times.insert(pos, ts)
                    timed.insert(pos, stored)
            self._next_id = next_id
            self._g_docs.set(len(stored_docs))
            return list(range(first, next_id))

    def all(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._docs)

    def where(self, key: str, value: Any) -> List[Dict[str, Any]]:
        """Documents whose ``key`` equals ``value``, in insertion order."""
        with self._lock:
            return list(self._by_key[key].get(value, ()))

    def in_window(
        self, start_millis: int, end_millis: int
    ) -> List[Dict[str, Any]]:
        """Documents inside [start, end], in timestamp-then-insertion
        order."""
        with self._lock:
            lo = bisect_left(self._times, start_millis)
            hi = bisect_right(self._times, end_millis)
            return self._timed[lo:hi]

    def count_in_window(
        self,
        start_millis: int,
        end_millis: int,
        key: Optional[str] = None,
        value: Any = None,
    ) -> int:
        """How many documents :meth:`in_window` returns, or how many of
        them have ``key`` equal to ``value`` when ``key`` is given."""
        if key is not None and key not in self._by_key:
            raise KeyError(key)
        with self._lock:
            lo = bisect_left(self._times, start_millis)
            hi = bisect_right(self._times, end_millis)
            if key is None:
                return max(0, hi - lo)
            return sum(
                1 for doc in self._timed[lo:hi] if doc.get(key) == value
            )

    def count(self) -> int:
        with self._lock:
            return len(self._docs)

    def clear(self) -> None:
        """Drop every document; later inserts keep counting ``_id``."""
        with self._lock:
            self._empty()
            self._g_docs.set(0)


def document_table(
    name: str,
    keys: Sequence[str],
    metrics: Optional[MetricsRegistry] = None,
    database: Optional[Any] = None,
) -> Any:
    """Open the keyed document table ``name`` in memory or on
    ``database`` (a :class:`~repro.service.sqlite_store.SQLiteDatabase`).
    """
    if database is None:
        return MemoryDocumentTable(name, keys, metrics)
    from .sqlite_store import SQLiteDocumentTable

    return SQLiteDocumentTable(database, name, keys, metrics)


class LogStorage:
    """Archived raw logs organised by source (paper: "Log Storage").

    Rows live in memory, or in the ``logs`` table of ``database`` (a
    :class:`~repro.service.sqlite_store.SQLiteDatabase`).

    **Timestamp visibility rule:** rows archived with
    ``timestamp_millis=None`` (no event time was detected) never appear
    in :meth:`time_range`.  They remain visible to :meth:`by_source`
    (and therefore to replay) and :meth:`count`.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        database: Optional[Any] = None,
    ) -> None:
        if database is None:
            self._table: Any = MemoryLogTable(metrics)
        else:
            from .sqlite_store import SQLiteLogTable

            self._table = SQLiteLogTable(database, metrics)

    def store(
        self,
        raw: str,
        source: str,
        timestamp_millis: Optional[int] = None,
    ) -> None:
        self._table.store_batch([(raw, source, timestamp_millis)])

    def store_many(
        self,
        raws: Iterable[str],
        source: str,
        timestamps: Optional[Iterable[Optional[int]]] = None,
    ) -> None:
        """Archive many lines of one source in a single batch.

        ``timestamps`` optionally supplies one ``timestamp_millis`` per
        raw line (same length as ``raws``).  Without it every row is
        stored timestamp-less and is therefore invisible to
        :meth:`time_range` forever (see the class docstring).
        """
        raw_list = list(raws)
        ts_list = (
            [None] * len(raw_list) if timestamps is None else list(timestamps)
        )
        if len(ts_list) != len(raw_list):
            raise ValueError(
                "store_many got %d timestamps for %d raw lines"
                % (len(ts_list), len(raw_list))
            )
        self.store_batch(zip(raw_list, repeat(source), ts_list))

    def store_batch(
        self, entries: Iterable[Tuple[str, str, Optional[int]]]
    ) -> None:
        """Archive ``(raw, source, timestamp_millis)`` rows in one batch."""
        self._table.store_batch(entries)

    def by_source(self, source: str) -> List[str]:
        """All raw logs of one source, in arrival order (for replay)."""
        return self._table.by_source(source)

    def sources(self) -> List[str]:
        """Every source archived so far, in first-arrival order."""
        return self._table.sources()

    def time_range(
        self, source: str, start_millis: int, end_millis: int
    ) -> List[str]:
        """Raw logs of a source within [start, end] (model rebuild window).

        Results come back in timestamp order (arrival order between
        equal timestamps).  Rows archived with ``timestamp_millis=None``
        never appear here — use :meth:`by_source` for the complete
        archive.
        """
        return self._table.time_range(source, start_millis, end_millis)

    def count(self, source: Optional[str] = None) -> int:
        return self._table.count(source)


class ModelStorage:
    """Versioned named models (paper: "Model Storage").

    Every ``put`` creates a new version; detectors read the latest unless
    they pin a version.  Values are stored as plain dicts — the
    serialisation format of :class:`~repro.parsing.parser.PatternModel` and
    :class:`~repro.sequence.model.SequenceModel`.

    Versions are **deep-copied on both put and get**: model dicts nest
    mutable pattern/automaton lists, and a shallow copy would let a
    caller that mutates a retrieved model corrupt the stored version in
    place.

    ``journal`` optionally mirrors every mutation into persistent
    storage (see
    :class:`~repro.service.sqlite_store.SQLiteModelJournal`); on
    construction the journal's history is loaded back, so a restarted
    service resumes with its full version history.
    """

    def __init__(self, journal: Optional[Any] = None) -> None:
        self._versions: Dict[str, List[Dict[str, Any]]] = {}
        #: Count of pruned (no longer retrievable) versions per name;
        #: version numbers stay stable across pruning.
        self._version_base: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._journal = journal
        if journal is not None:
            self._versions, self._version_base = journal.load()

    def put(self, name: str, model_dict: Dict[str, Any]) -> int:
        """Store a new version; returns the 1-based version number."""
        with self._lock:
            history = self._versions.setdefault(name, [])
            history.append(copy.deepcopy(model_dict))
            version = self._version_base.get(name, 0) + len(history)
            if self._journal is not None:
                self._journal.append(name, version, history[-1])
            return version

    def get(
        self, name: str, version: Optional[int] = None
    ) -> Dict[str, Any]:
        with self._lock:
            history = self._versions.get(name)
            if not history:
                raise KeyError("no model named %r" % name)
            if version is None:
                return copy.deepcopy(history[-1])
            base = self._version_base.get(name, 0)
            index = version - base - 1
            if not 0 <= index < len(history):
                raise KeyError(
                    "model %r has no version %d" % (name, version)
                )
            return copy.deepcopy(history[index])

    def latest_version(self, name: str) -> int:
        with self._lock:
            history = self._versions.get(name)
            if not history:
                raise KeyError("no model named %r" % name)
            return self._version_base.get(name, 0) + len(history)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._versions)

    def prune(self, name: str, keep_last: int = 5) -> int:
        """Drop old versions, keeping the newest ``keep_last``.

        Version *numbers* stay stable — pruned versions simply become
        unretrievable; returns how many were dropped.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        with self._lock:
            history = self._versions.get(name)
            if not history:
                raise KeyError("no model named %r" % name)
            dropped = max(0, len(history) - keep_last)
            if dropped:
                self._version_base[name] = (
                    self._version_base.get(name, 0) + dropped
                )
                self._versions[name] = history[dropped:]
                if self._journal is not None:
                    self._journal.prune(name, self._version_base[name])
            return dropped

    def delete(self, name: str) -> None:
        with self._lock:
            if name not in self._versions:
                raise KeyError("no model named %r" % name)
            del self._versions[name]
            self._version_base.pop(name, None)
            if self._journal is not None:
                self._journal.delete(name)


class AnomalyStorage:
    """Validated anomaly documents (paper: "Anomaly Storage").

    A keyed document table (:func:`document_table`) named
    ``anomalies`` with keys ``type`` and ``source``, in memory or on
    ``database``.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        database: Optional[Any] = None,
    ) -> None:
        self._table = document_table(
            "anomalies", ("type", "source"), metrics, database
        )

    def store(self, anomaly_dict: Dict[str, Any]) -> int:
        return self._table.insert_many([anomaly_dict])[0]

    def store_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]:
        """Store many anomaly documents in one batch, in order."""
        return self._table.insert_many(docs)

    def all(self) -> List[Dict[str, Any]]:
        return self._table.all()

    def by_type(self, type_value: str) -> List[Dict[str, Any]]:
        return self._table.where("type", type_value)

    def by_source(self, source: str) -> List[Dict[str, Any]]:
        return self._table.where("source", source)

    def in_window(
        self, start_millis: int, end_millis: int
    ) -> List[Dict[str, Any]]:
        """Anomalies within the window, in timestamp order."""
        return self._table.in_window(start_millis, end_millis)

    def count_in_window(
        self,
        start_millis: int,
        end_millis: int,
        anomaly_type: Optional[str] = None,
    ) -> int:
        """How many anomalies :meth:`in_window` returns (only those of
        ``anomaly_type`` when given), without reading them back."""
        if anomaly_type is None:
            return self._table.count_in_window(start_millis, end_millis)
        return self._table.count_in_window(
            start_millis, end_millis, "type", anomaly_type
        )

    def count(self) -> int:
        return self._table.count()

    def clear(self) -> None:
        """Drop every anomaly; ``_id`` keeps counting."""
        self._table.clear()
