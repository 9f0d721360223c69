"""Document stores: log, model, and anomaly storage (Elasticsearch stand-in).

Section II-B of the paper assigns three storage roles to Elasticsearch:
archived raw logs organised by source (replayable for model rebuilds),
versioned models, and validated anomalies queryable from the dashboard.
These in-memory stores reproduce the query surface LogLens uses: exact
field match, numeric range scans, and source/time organisation.

**Indexing.** :class:`DocumentStore` keeps lazily-built secondary
indexes so the query surface stays sub-linear at archive scale:

* a hash index per exact-match field (built on the first ``match`` query
  naming the field, maintained on every insert afterwards);
* a sorted index per range field (bisect slicing for ``range_`` queries);
* an id map for O(1) :meth:`DocumentStore.get`.

Fields whose values turn out to be unhashable (hash index) or mutually
uncomparable (sorted index) poison that one index and fall back to the
linear scan — never an error.

**Read views.** Queries return the stored documents themselves as
immutable read views (:class:`dict` subclass that refuses mutation)
instead of copying every matching document.  They compare, index, and
iterate exactly like the dicts the API historically returned; call
``dict(doc)`` for a mutable copy.

**Ordering** is explicit: ``match``-only queries return documents in
insertion order; when the sorted index serves a ``range_`` query the
results come back ordered by the range field (ties in insertion order).
``limit`` truncates *after* that ordering is established.

**Backends.** :class:`DocumentStore` is the reference implementation of
the :class:`~repro.service.backends.StorageBackend` protocol — the fast
in-memory default and the oracle the cross-backend equivalence suite
holds other backends to.  :class:`LogStorage` and
:class:`AnomalyStorage` accept any protocol implementation via their
``backend`` parameter (e.g. the persistent
:class:`~repro.service.sqlite_store.SQLiteDocumentStore`);
:class:`ModelStorage` persists through an optional write-through
``journal``.  See ``docs/STORAGE.md``.
"""

from __future__ import annotations

import copy
import threading
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..obs import MetricsRegistry, get_registry

__all__ = [
    "ReadOnlyDocument",
    "DocumentStore",
    "LogStorage",
    "ModelStorage",
    "AnomalyStorage",
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


class _SortedIndex:
    """Parallel (keys, docs) lists kept sorted by one field's value."""

    __slots__ = ("keys", "docs")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.docs: List[ReadOnlyDocument] = []


#: Sentinel distinguishing "index never requested" from "index poisoned".
_UNBUILT = object()


class DocumentStore:
    """A minimal schemaless document collection with match/range queries.

    Parameters
    ----------
    metrics:
        Registry for the ``storage.*`` gauges (defaults to the process
        registry).
    name:
        Label distinguishing this store's gauges (``store=<name>``).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "documents",
    ) -> None:
        self._docs: List[ReadOnlyDocument] = []
        self._by_id: Dict[int, ReadOnlyDocument] = {}
        # field -> {value: [doc, ...]} buckets; None marks a field whose
        # values proved unhashable (permanent linear fallback).
        self._hash_index: Dict[
            str, Optional[Dict[Any, List[ReadOnlyDocument]]]
        ] = {}
        # field -> _SortedIndex; None marks uncomparable values.
        self._sorted_index: Dict[str, Optional[_SortedIndex]] = {}
        self._lock = threading.RLock()
        self._next_id = 0
        obs = metrics if metrics is not None else get_registry()
        self._g_docs = obs.gauge("storage.documents", store=name)
        self._g_hash_fields = obs.gauge(
            "storage.hash_index_fields", store=name
        )
        self._g_sorted_fields = obs.gauge(
            "storage.sorted_index_fields", store=name
        )
        self._g_index_entries = obs.gauge(
            "storage.index_entries", store=name
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def insert(self, doc: Dict[str, Any]) -> int:
        """Store a copy of ``doc``; returns the assigned document id."""
        return self.insert_many([doc])[0]

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]:
        """Store many documents under one lock acquisition.

        The one write path: every insert maintains the indexes and
        refreshes the gauges here.  The batch loop hoists the live-index
        lookups out of the per-doc path, so bulk archiving pays the lock
        and the index plumbing once per batch instead of once per
        document.
        """
        with self._lock:
            hash_live = [
                (f, i) for f, i in self._hash_index.items() if i is not None
            ]
            sorted_live = [
                (f, s)
                for f, s in self._sorted_index.items()
                if s is not None
            ]
            ids: List[int] = []
            add_id = ids.append
            add_doc = self._docs.append
            by_id = self._by_id
            next_id = self._next_id
            # Poisoned fields collected per document, applied *after*
            # each index loop: removing from hash_live/sorted_live while
            # iterating them silently skipped the next live index for
            # that document, leaving it invisible to later queries.
            poisoned: List[str] = []
            for doc in docs:
                stored = ReadOnlyDocument(doc)
                dict.__setitem__(stored, "_id", next_id)
                add_doc(stored)
                by_id[next_id] = stored
                add_id(next_id)
                next_id += 1
                for entry in hash_live:
                    fname, index = entry
                    value = stored.get(fname)
                    try:
                        bucket = index.get(value)
                    except TypeError:  # unhashable value: poison
                        self._hash_index[fname] = None
                        poisoned.append(fname)
                        continue
                    if bucket is None:
                        index[value] = [stored]
                    else:
                        bucket.append(stored)
                if poisoned:
                    hash_live = [
                        e for e in hash_live if e[0] not in poisoned
                    ]
                    poisoned.clear()
                for entry in sorted_live:
                    fname, sindex = entry
                    value = stored.get(fname)
                    if value is None:
                        continue
                    keys = sindex.keys
                    try:
                        if not keys or not value < keys[-1]:
                            # Monotone fast path: log/anomaly timestamps
                            # arrive (near-)sorted, so the common insert
                            # is an append.
                            keys.append(value)
                            sindex.docs.append(stored)
                        else:
                            # bisect_right keeps equal keys in insertion
                            # order.
                            pos = bisect_right(keys, value)
                            keys.insert(pos, value)
                            sindex.docs.insert(pos, stored)
                    except TypeError:  # uncomparable value: poison
                        self._sorted_index[fname] = None
                        poisoned.append(fname)
                if poisoned:
                    sorted_live = [
                        e for e in sorted_live if e[0] not in poisoned
                    ]
                    poisoned.clear()
            self._next_id = next_id
            self._g_docs.set(len(self._docs))
            self._refresh_index_gauges()
            return ids

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, doc_id: int) -> Optional[Dict[str, Any]]:
        """O(1) id lookup via the id map."""
        with self._lock:
            return self._by_id.get(doc_id)

    def query(
        self,
        match: Optional[Dict[str, Any]] = None,
        range_: Optional[Tuple[str, Optional[float], Optional[float]]] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Filter by exact field equality and/or an inclusive numeric range.

        ``range_`` is ``(field, low, high)``; ``None`` bounds are open.
        Results are immutable read views of the stored documents.

        Ordering: insertion order for ``match``-only (and unindexed)
        queries; range-field order — ties in insertion order — when the
        sorted index serves ``range_``.  ``limit`` keeps the first N of
        that ordering.
        """
        with self._lock:
            if range_ is not None:
                out = self._query_range(match, range_, limit)
            elif match:
                out = self._query_match(match, limit)
            else:
                out = self._docs[:limit]
            return list(out)

    def _query_range(
        self,
        match: Optional[Dict[str, Any]],
        range_: Tuple[str, Optional[float], Optional[float]],
        limit: Optional[int],
    ) -> List[ReadOnlyDocument]:
        fname, lo, hi = range_
        sindex = self._sorted_range_index(fname)
        if sindex is None:
            return self._scan(match, range_, limit)
        lo_pos = 0 if lo is None else bisect_left(sindex.keys, lo)
        hi_pos = (
            len(sindex.keys) if hi is None
            else bisect_right(sindex.keys, hi)
        )
        candidates = sindex.docs[lo_pos:hi_pos]
        if not match:
            return candidates[:limit]
        out: List[ReadOnlyDocument] = []
        items = list(match.items())
        for doc in candidates:
            if all(doc.get(k) == v for k, v in items):
                out.append(doc)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def _query_match(
        self, match: Dict[str, Any], limit: Optional[int]
    ) -> List[ReadOnlyDocument]:
        bucket: Optional[List[ReadOnlyDocument]] = None
        bucket_field: Optional[str] = None
        for fname, value in match.items():
            index = self._hash_match_index(fname)
            if index is None:
                continue
            try:
                bucket = index.get(value, [])
            except TypeError:  # unhashable probe value; try another field
                continue
            bucket_field = fname
            break
        if bucket_field is None:
            return self._scan(match, None, limit)
        rest = [(k, v) for k, v in match.items() if k != bucket_field]
        if not rest:
            return bucket[:limit]
        out: List[ReadOnlyDocument] = []
        for doc in bucket:
            if all(doc.get(k) == v for k, v in rest):
                out.append(doc)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def _scan(
        self,
        match: Optional[Dict[str, Any]],
        range_: Optional[Tuple[str, Optional[float], Optional[float]]],
        limit: Optional[int],
    ) -> List[ReadOnlyDocument]:
        """The linear fallback (poisoned index or unhashable probe)."""
        out: List[ReadOnlyDocument] = []
        for doc in self._docs:
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

    def distinct(self, field: str) -> List[Any]:
        """Distinct values of ``field``, in first-insertion order.

        Documents missing the field contribute ``None`` (the same
        conflation :meth:`query`'s ``match`` applies).
        """
        with self._lock:
            index = self._hash_match_index(field)
            if index is not None:
                return list(index)
            seen: List[Any] = []
            for doc in self._docs:
                value = doc.get(field)
                if value not in seen:
                    seen.append(value)
            return seen

    def count(self, match: Optional[Dict[str, Any]] = None) -> int:
        if match is None:
            with self._lock:
                return len(self._docs)
        return len(self.query(match=match))

    def clear(self) -> None:
        with self._lock:
            self._docs.clear()
            self._by_id.clear()
            self._hash_index.clear()
            self._sorted_index.clear()
            self._g_docs.set(0)
            self._refresh_index_gauges()

    # ------------------------------------------------------------------
    # Index construction (lock held)
    # ------------------------------------------------------------------
    def _hash_match_index(
        self, fname: str
    ) -> Optional[Dict[Any, List[ReadOnlyDocument]]]:
        index = self._hash_index.get(fname, _UNBUILT)
        if index is not _UNBUILT:
            return index
        built: Dict[Any, List[ReadOnlyDocument]] = {}
        try:
            for doc in self._docs:
                built.setdefault(doc.get(fname), []).append(doc)
        except TypeError:  # unhashable value somewhere: poison
            self._hash_index[fname] = None
            return None
        self._hash_index[fname] = built
        self._refresh_index_gauges()
        return built

    def _sorted_range_index(self, fname: str) -> Optional[_SortedIndex]:
        sindex = self._sorted_index.get(fname, _UNBUILT)
        if sindex is not _UNBUILT:
            return sindex
        built = _SortedIndex()
        pairs = [
            (doc.get(fname), doc)
            for doc in self._docs
            if doc.get(fname) is not None
        ]
        try:
            # Stable sort: equal keys stay in insertion order.
            pairs.sort(key=lambda pair: pair[0])
        except TypeError:  # mixed uncomparable values: poison
            self._sorted_index[fname] = None
            return None
        built.keys = [value for value, _ in pairs]
        built.docs = [doc for _, doc in pairs]
        self._sorted_index[fname] = built
        self._refresh_index_gauges()
        return built

    def _refresh_index_gauges(self) -> None:
        hash_live = [i for i in self._hash_index.values() if i is not None]
        sorted_live = [
            i for i in self._sorted_index.values() if i is not None
        ]
        self._g_hash_fields.set(len(hash_live))
        self._g_sorted_fields.set(len(sorted_live))
        self._g_index_entries.set(
            sum(len(i) for i in hash_live)
            + sum(len(i.keys) for i in sorted_live)
        )


class LogStorage:
    """Archived raw logs organised by source (paper: "Log Storage").

    ``backend`` is any :class:`~repro.service.backends.StorageBackend`
    implementation; defaults to an in-memory :class:`DocumentStore`.

    **Timestamp visibility rule:** rows archived with
    ``timestamp_millis=None`` (no event time was detected) are
    permanently invisible to :meth:`time_range` — the time index skips
    documents missing the range field.  They remain visible to
    :meth:`by_source` (and therefore to replay) and :meth:`count`.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional[Any] = None,
    ) -> None:
        self._store = (
            backend
            if backend is not None
            else DocumentStore(metrics=metrics, name="logs")
        )

    def store(
        self,
        raw: str,
        source: str,
        timestamp_millis: Optional[int] = None,
    ) -> int:
        return self._store.insert(
            {
                "raw": raw,
                "source": source,
                "timestamp_millis": timestamp_millis,
            }
        )

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
        self._store.insert_many(
            [
                {"raw": raw, "source": source, "timestamp_millis": ts}
                for raw, source, ts in entries
            ]
        )

    def by_source(self, source: str) -> List[str]:
        """All raw logs of one source, in arrival order (for replay)."""
        return [
            d["raw"] for d in self._store.query(match={"source": source})
        ]

    def sources(self) -> List[str]:
        return self._store.distinct("source")

    def time_range(
        self, source: str, start_millis: int, end_millis: int
    ) -> List[str]:
        """Raw logs of a source within [start, end] (model rebuild window).

        Served by the time index: results come back in timestamp order
        (arrival order between equal timestamps).  Rows archived with
        ``timestamp_millis=None`` never appear here — use
        :meth:`by_source` for the complete archive.
        """
        docs = self._store.query(
            match={"source": source},
            range_=("timestamp_millis", start_millis, end_millis),
        )
        return [d["raw"] for d in docs]

    def count(self, source: Optional[str] = None) -> int:
        match = {"source": source} if source is not None else None
        return self._store.count(match=match)


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

    ``backend`` is any :class:`~repro.service.backends.StorageBackend`
    implementation; defaults to an in-memory :class:`DocumentStore`.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional[Any] = None,
    ) -> None:
        self._store = (
            backend
            if backend is not None
            else DocumentStore(metrics=metrics, name="anomalies")
        )

    def store(self, anomaly_dict: Dict[str, Any]) -> int:
        return self._store.insert(anomaly_dict)

    def store_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]:
        """Store many anomaly documents in one batch, in order."""
        return self._store.insert_many(docs)

    def all(self) -> List[Dict[str, Any]]:
        return self._store.query()

    def by_type(self, type_value: str) -> List[Dict[str, Any]]:
        return self._store.query(match={"type": type_value})

    def by_source(self, source: str) -> List[Dict[str, Any]]:
        return self._store.query(match={"source": source})

    def in_window(
        self, start_millis: int, end_millis: int
    ) -> List[Dict[str, Any]]:
        """Anomalies within the window, in timestamp order."""
        return self._store.query(
            range_=("timestamp_millis", start_millis, end_millis)
        )

    def count(self) -> int:
        return self._store.count()

    def clear(self) -> None:
        self._store.clear()
