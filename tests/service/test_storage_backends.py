"""Every store on both backends: one property plus the SQLite specifics.

* :class:`TestStoresAgree` — random interleavings of every write method
  of :class:`LogStorage`, :class:`AnomalyStorage` and
  :class:`AlertHistory`, with every read method, on memory and on one
  SQLite database; both must equal a list-comprehension oracle (order
  and ``_id`` included), before and after close and reopen;
* seeded keyed-table workloads, awkward values (the accepted ones
  agree, the refused ones are refused alike), ``clear`` and the
  documented orders, compared table against table;
* ``count_in_window`` against the window it counts, and the SQLite
  query plan that keeps it on the time index;
* old-layout databases are refused untouched;
* the model journal's version history (including stable numbering
  across pruning) survives a restart;
* a full service stop/restart on one database file;
* the read-only SQL surface and the count-free write path.
"""

import json
import random
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alerts import AlertHistory
from repro.errors import StorageLayoutError
from repro.obs import MetricsRegistry
from repro.service.backends import parse_storage_spec
from repro.service.config import ServiceConfig
from repro.service.sqlite_store import (
    SQLiteDatabase,
    SQLiteModelJournal,
    run_readonly_sql,
)
from repro.service.storage import (
    AnomalyStorage,
    LogStorage,
    ModelStorage,
    ReadOnlyDocument,
    document_table,
)

from .test_storage_indexes import KEYS, brute_force, randomized_docs


def _table(database=None, name="documents", metrics=None):
    """A keyed document table (keys ``type`` and ``source``)."""
    return document_table(
        name, KEYS, metrics or MetricsRegistry(), database
    )


@pytest.fixture(params=["memory", "sqlite"])
def store_factory(request, tmp_path):
    """A factory of keyed document tables on the current backend."""
    databases = {}

    def make(name="documents"):
        if request.param == "memory":
            return _table(name=name)
        db = databases[name] = SQLiteDatabase(tmp_path / ("%s.db" % name))
        return _table(db, name)

    def reopen(table, name="documents"):
        """``table`` after close and reopen (in memory: itself)."""
        if request.param == "memory":
            return table
        databases.pop(name).close()
        return make(name)

    make.backend = request.param
    make.reopen = reopen
    yield make
    for db in databases.values():
        db.close()


@pytest.fixture
def sqlite_db(tmp_path):
    db = SQLiteDatabase(tmp_path / "store.db")
    yield db
    db.close()


#: The read and write surface each backend's tables offer.
DOCUMENT_SURFACE = ("insert_many", "all", "where", "in_window",
                    "count_in_window", "count", "clear")
LOG_SURFACE = ("store_batch", "by_source", "sources", "time_range", "count")


class TestProtocolConformance:
    def test_both_backends_satisfy_the_protocol(self, store_factory):
        documents = store_factory()
        logs = LogStorage(
            MetricsRegistry(), getattr(documents, "_db", None)
        )._table
        for table, surface in ((documents, DOCUMENT_SURFACE),
                               (logs, LOG_SURFACE)):
            for name in surface:
                assert callable(getattr(table, name)), name
        assert type(logs).__name__ == (
            "MemoryLogTable" if store_factory.backend == "memory"
            else "SQLiteLogTable"
        )

    def test_spec_parsing(self):
        assert parse_storage_spec(None).kind == "memory"
        assert parse_storage_spec("memory").kind == "memory"
        config = parse_storage_spec("sqlite:/tmp/x.db")
        assert (config.kind, config.path) == ("sqlite", "/tmp/x.db")
        assert config.persistent and config.describe() == "sqlite:/tmp/x.db"
        with pytest.raises(ValueError):
            parse_storage_spec("sqlite:")
        with pytest.raises(ValueError):
            parse_storage_spec("postgres://nope")

    def test_wal_mode_is_active(self, sqlite_db):
        assert sqlite_db.journal_mode == "wal"


# ----------------------------------------------------------------------
# The store-level property
# ----------------------------------------------------------------------
SOURCES = ["a", "b", "c"]
TYPES = ["missing_end", "unparsed_log"]
RULES = ["burst", "quiet"]
STATES = ["firing", "resolved"]
#: A narrow time range, so equal timestamps are common.
TIMES = st.one_of(st.none(), st.integers(0, 12))
RAW = st.text(alphabet="xy é\t'\"", max_size=5)
LOG_ENTRY = st.tuples(RAW, st.sampled_from(SOURCES), TIMES)
ANOMALY = st.fixed_dictionaries({
    "type": st.sampled_from(TYPES),
    "source": st.sampled_from(SOURCES),
    "timestamp_millis": TIMES,
    "severity": st.integers(0, 3),
    "reason": RAW,
})
ALERT = st.fixed_dictionaries({
    "rule": st.sampled_from(RULES),
    "state": st.sampled_from(STATES),
    "timestamp_millis": TIMES,
    "value": st.floats(-2, 2, allow_nan=False),
})
OPS = st.one_of(
    st.tuples(st.just("store_batch"), st.lists(LOG_ENTRY, max_size=6)),
    st.tuples(
        st.just("store_many"),
        st.lists(st.tuples(RAW, TIMES), max_size=6),
        st.sampled_from(SOURCES),
        st.booleans(),
    ),
    st.tuples(st.just("store"), LOG_ENTRY),
    st.tuples(st.just("anomalies"), st.lists(ANOMALY, max_size=4)),
    st.tuples(st.just("anomaly"), ANOMALY),
    st.tuples(st.just("append"), ALERT),
    st.tuples(st.just("read"), st.integers(-1, 13), st.integers(-1, 13)),
    st.tuples(st.just("reopen")),
)


class Stores:
    """The three stores of one backend (``path`` None: memory)."""

    def __init__(self, path=None):
        self.path = path
        self.open()

    def open(self):
        self.metrics = MetricsRegistry()
        self.db = None if self.path is None else SQLiteDatabase(self.path)
        self.logs = LogStorage(self.metrics, self.db)
        self.anomalies = AnomalyStorage(self.metrics, self.db)
        self.alerts = AlertHistory(self.metrics, self.db)

    def reopen(self):
        if self.db is not None:
            self.db.close()
            self.open()

    def gauges(self):
        return [
            self.metrics.get("storage.documents", store=name).value
            for name in ("logs", "anomalies", "alerts")
        ]

    def read(self, lo, hi):
        keys = SOURCES + ["nowhere"]
        logs, anomalies, alerts = self.logs, self.anomalies, self.alerts
        return {
            "sources": logs.sources(),
            "by_source": [logs.by_source(s) for s in keys],
            "time_range": [logs.time_range(s, lo, hi) for s in keys],
            "log_count": [logs.count()] + [logs.count(s) for s in keys],
            "anomalies": anomalies.all(),
            "by_type": [anomalies.by_type(t) for t in TYPES + ["x"]],
            "anomaly_by_source": [anomalies.by_source(s) for s in keys],
            "anomaly_window": anomalies.in_window(lo, hi),
            "anomaly_window_count": [
                anomalies.count_in_window(lo, hi, t) for t in [None] + TYPES
            ],
            "anomaly_count": anomalies.count(),
            "alerts": alerts.all(),
            "alert_count": alerts.count(),
            "gauges": self.gauges(),
        }


class Oracle:
    """The same reads, spelled as comprehensions over plain lists."""

    def __init__(self):
        self.logs = []  # (raw, source, timestamp_millis)
        self.anomalies = []
        self.alerts = []

    @staticmethod
    def stamp(docs, doc):
        docs.append(dict(doc, _id=len(docs)))
        return len(docs) - 1

    @staticmethod
    def window(docs, lo, hi):
        hits = [
            d for d in docs
            if d["timestamp_millis"] is not None
            and lo <= d["timestamp_millis"] <= hi
        ]
        return sorted(hits, key=lambda d: d["timestamp_millis"])

    def read(self, lo, hi):
        keys = SOURCES + ["nowhere"]
        logs, anomalies, alerts = self.logs, self.anomalies, self.alerts
        sources = list(dict.fromkeys(source for _, source, _ in logs))

        def time_range(s):
            hits = [
                (ts, raw) for raw, source, ts in logs
                if source == s and ts is not None and lo <= ts <= hi
            ]
            return [raw for _, raw in sorted(hits, key=lambda h: h[0])]

        def where(docs, key, value):
            return [d for d in docs if d[key] == value]

        return {
            "sources": sources,
            "by_source": [
                [raw for raw, source, _ in logs if source == s] for s in keys
            ],
            "time_range": [time_range(s) for s in keys],
            "log_count": [len(logs)] + [
                sum(1 for _, source, _ in logs if source == s) for s in keys
            ],
            "anomalies": anomalies,
            "by_type": [where(anomalies, "type", t) for t in TYPES + ["x"]],
            "anomaly_by_source": [
                where(anomalies, "source", s) for s in keys
            ],
            "anomaly_window": self.window(anomalies, lo, hi),
            "anomaly_window_count": [
                sum(
                    1 for d in self.window(anomalies, lo, hi)
                    if t is None or d["type"] == t
                )
                for t in [None] + TYPES
            ],
            "anomaly_count": len(anomalies),
            "alerts": alerts,
            "alert_count": len(alerts),
            "gauges": [len(logs), len(anomalies), len(alerts)],
        }


def apply(op, stores, oracle):
    """Run one write op on both backends and the oracle."""
    kind = op[0]
    if kind == "store_batch":
        for target in stores:
            # A generator: the stores must not need a sized batch.
            target.logs.store_batch(entry for entry in op[1])
        oracle.logs.extend(op[1])
    elif kind == "store_many":
        _, rows, source, timed = op
        raws = [raw for raw, _ in rows]
        times = [ts for _, ts in rows] if timed else None
        for target in stores:
            target.logs.store_many(raws, source, timestamps=times)
        oracle.logs.extend(
            (raw, source, ts if timed else None) for raw, ts in rows
        )
    elif kind == "store":
        raw, source, ts = op[1]
        for target in stores:
            target.logs.store(raw, source, timestamp_millis=ts)
        oracle.logs.append(op[1])
    elif kind == "anomalies":
        want = [oracle.stamp(oracle.anomalies, doc) for doc in op[1]]
        for target in stores:
            assert target.anomalies.store_many(op[1]) == want
    elif kind == "anomaly":
        want = oracle.stamp(oracle.anomalies, op[1])
        for target in stores:
            assert target.anomalies.store(op[1]) == want
    elif kind == "append":
        want = oracle.stamp(oracle.alerts, op[1])
        for target in stores:
            assert target.alerts.append(op[1]) == want
    elif kind == "reopen":
        for target in stores:
            target.reopen()


class TestStoresAgree:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(OPS, max_size=20))
    def test_memory_sqlite_and_oracle_agree(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            memory = Stores()
            durable = Stores(Path(tmp) / "stores.db")
            oracle = Oracle()
            try:
                for op in ops:
                    apply(op, (memory, durable), oracle)
                    if op[0] == "read":
                        lo, hi = op[1], op[2]
                        want = oracle.read(lo, hi)
                        assert memory.read(lo, hi) == want
                        assert durable.read(lo, hi) == want
                durable.reopen()
                for lo, hi in [(0, 12), (3, 7), (5, 5), (9, 2)]:
                    want = oracle.read(lo, hi)
                    assert memory.read(lo, hi) == want
                    assert durable.read(lo, hi) == want
                # Memory reads are the stored read-only views.
                for doc in memory.anomalies.all() + memory.alerts.all():
                    assert isinstance(doc, ReadOnlyDocument)
            finally:
                durable.db.close()

    def test_read_only_views(self):
        storage = AnomalyStorage(MetricsRegistry())
        original = {"type": "t", "source": "a", "timestamp_millis": 1}
        storage.store(original)
        original["type"] = "changed"  # the store kept its own copy
        doc = storage.by_source("a")[0]
        assert doc["type"] == "t"
        with pytest.raises(TypeError):
            doc["type"] = "u"
        with pytest.raises(TypeError):
            doc.pop("type")
        mutable = dict(doc)
        mutable["type"] = "u"  # the documented escape hatch
        assert storage.by_type("t") == [doc]


class TestBackendsAgreeOnRandomWorkloads:
    """Same docs + same reads -> identical results, both backends."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_equivalence_vs_oracle(self, seed, tmp_path):
        rng = random.Random(seed)
        docs = randomized_docs(rng, 300)
        oracle = _table()
        db = SQLiteDatabase(tmp_path / "eq.db")
        try:
            subject = _table(db)
            assert oracle.insert_many(docs) == subject.insert_many(docs)
            assert subject.all() == oracle.all()
            for _ in range(50):
                if rng.random() < 0.5:
                    key = rng.choice(KEYS)
                    value = rng.choice(
                        ["src-%d" % rng.randrange(7), "a", "zzz", None]
                    )
                    assert subject.where(key, value) == oracle.where(
                        key, value
                    ), (key, value)
                else:
                    lo = rng.randrange(1000)
                    hi = lo + rng.randrange(300)
                    assert subject.in_window(lo, hi) == oracle.in_window(
                        lo, hi
                    ), (lo, hi)
        finally:
            db.close()

    @pytest.mark.parametrize("seed", [11, 12])
    def test_sqlite_matches_brute_force(self, seed, tmp_path):
        rng = random.Random(seed)
        docs = randomized_docs(rng, 200)
        db = SQLiteDatabase(tmp_path / "bf.db")
        try:
            store = _table(db)
            store.insert_many(docs)
            stored = store.all()
            for _ in range(30):
                source = "src-%d" % rng.randrange(7)
                assert store.where("source", source) == brute_force(
                    stored, {"source": source}
                )
                lo = rng.randrange(1000)
                assert store.in_window(lo, lo + 250) == brute_force(
                    stored, window=(lo, lo + 250)
                )
        finally:
            db.close()

    def test_interleaved_batches_stay_equivalent(self, tmp_path):
        rng = random.Random(99)
        oracle = _table()
        db = SQLiteDatabase(tmp_path / "inter.db")
        try:
            subject = _table(db)
            for _ in range(6):
                batch = randomized_docs(rng, 40)
                assert oracle.insert_many(batch) == subject.insert_many(
                    batch
                )
                source = "src-%d" % rng.randrange(6)
                assert subject.where("source", source) == oracle.where(
                    "source", source
                )
                lo = rng.randrange(800)
                assert subject.in_window(lo, lo + 150) == oracle.in_window(
                    lo, lo + 150
                )
        finally:
            db.close()


class TestBackendSurfaceEquivalence:
    """Awkward values, clear and the documented orders, both backends."""

    #: Values both backends take and index alike.
    AWKWARD = [
        {"source": "a", "timestamp_millis": 1, "n": 0},
        {"source": "b", "n": 2},                        # time missing
        {"source": "a", "timestamp_millis": 2.5, "n": 3},  # float time
        {"source": None, "timestamp_millis": 4, "n": 4},   # explicit None
        {"flag": True, "timestamp_millis": 5, "n": 5},     # key missing
        {"source": "b", "timestamp_millis": 5, "n": 6},    # tie on time
        {"source": 1, "type": True, "timestamp_millis": True, "n": 7},
        {"source": "1", "type": 1.0, "timestamp_millis": 4.0, "n": 8},
        {"source": "é\x00'", "nested": {"k": [1, None]}, "n": 9},
    ]
    #: Batches both backends refuse, leaving the table as it was.
    REFUSED = [
        [{"source": "a", "n": 10}, {"source": ["not", "hashable"]}],
        [{"source": ("a",)}],
        [{"type": {"k": 1}}],
        [{"source": float("nan")}],
        [{"timestamp_millis": "noon"}],
        [{"timestamp_millis": "5"}],  # SQLite would have made it 5
        [{"timestamp_millis": [5]}],
    ]

    def _pair(self, tmp_path):
        oracle = _table()
        db = SQLiteDatabase(tmp_path / "pair.db")
        return oracle, _table(db), db

    def test_awkward_values_agree(self, tmp_path):
        oracle, subject, db = self._pair(tmp_path)
        try:
            assert oracle.insert_many(self.AWKWARD) == subject.insert_many(
                self.AWKWARD
            )
            for batch in self.REFUSED:
                for table in (oracle, subject):
                    with pytest.raises(TypeError):
                        table.insert_many(batch)
            assert subject.all() == oracle.all()
            assert [d["n"] for d in oracle.all()] == [
                d["n"] for d in self.AWKWARD
            ]
            probes = [
                ("source", "a"),
                ("source", None),          # matches missing too
                ("source", 1),             # 1 == True == 1.0, not "1"
                ("source", "1"),
                ("type", True),
                ("type", 1),
                ("source", "é\x00'"),
                ("type", "nowhere"),
            ]
            for key, value in probes:
                assert subject.where(key, value) == oracle.where(
                    key, value
                ), (key, value)
            for lo, hi in [(1, 5), (-10, 4), (2, 2.5), (4, 4), (6, 1)]:
                assert subject.in_window(lo, hi) == oracle.in_window(
                    lo, hi
                ), (lo, hi)
                for key, value in [(None, None)] + probes:
                    assert subject.count_in_window(
                        lo, hi, key, value
                    ) == oracle.count_in_window(
                        lo, hi, key, value
                    ), (lo, hi, key, value)
            assert oracle.insert_many([{"n": 11}]) == subject.insert_many(
                [{"n": 11}]
            ) == [len(self.AWKWARD)]
        finally:
            db.close()

    def test_distinct_and_get_agree(self, tmp_path):
        """``sources()`` (the one distinct read) and every stored
        document found again by its own keys, on both backends."""
        oracle, subject, db = self._pair(tmp_path)
        try:
            oracle.insert_many(self.AWKWARD)
            subject.insert_many(self.AWKWARD)
            for doc in subject.all():
                for key in KEYS:
                    hit = subject.where(key, doc.get(key))
                    assert doc in hit
                    assert hit == oracle.where(key, doc.get(key))
            entries = [
                ("r%d" % i, source, ts) for i, (source, ts) in enumerate(
                    [("b", 2), ("a", None), ("b", 1), ("", 3), ("a", 2)]
                )
            ]
            logs = [LogStorage(MetricsRegistry()),
                    LogStorage(MetricsRegistry(), db)]
            for storage in logs:
                storage.store_batch(entries)
            assert [s.sources() for s in logs] == [["b", "a", ""]] * 2
            assert [s.by_source("b") for s in logs] == [["r0", "r2"]] * 2
        finally:
            db.close()

    def test_clear_keeps_id_monotonic(self, store_factory):
        store = store_factory()
        assert store.insert_many([{"n": 0}, {"n": 1}]) == [0, 1]
        store.clear()
        assert store.count() == 0
        assert store.all() == [] and store.where("type", None) == []
        assert store.insert_many([{"n": 2}]) == [2]  # ids never reused
        store.clear()
        store = store_factory.reopen(store)
        assert store.count() == 0
        assert store.insert_many([{"n": 3}]) == [3]  # ... nor after reopen
        assert store.all() == [{"n": 3, "_id": 3}]

    def test_insertion_order_and_range_order_contract(self, store_factory):
        store = store_factory()
        for n, ts in enumerate([30, 10, 20, 10, 40]):
            store.insert_many(
                [{"timestamp_millis": ts, "n": n, "source": "s"}]
            )
        assert [d["n"] for d in store.where("source", "s")] == [
            0, 1, 2, 3, 4,
        ]
        hit = store.in_window(10, 30)
        assert [(d["timestamp_millis"], d["n"]) for d in hit] == [
            (10, 1), (10, 3), (20, 2), (30, 0),
        ]


class TestCountInWindow:
    """``count_in_window`` is the length of the window it counts, and on
    SQLite it walks the time index."""

    #: No filter, every drawn type, and a type that never occurs.
    COUNTED = [None] + TYPES + ["never"]

    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(ANOMALY, max_size=30),
        windows=st.lists(
            st.tuples(st.integers(-1, 13), st.integers(-1, 13)),
            min_size=1, max_size=4,
        ),
    )
    @example(
        # Ties on both edges, a doc without a time, out-of-order times.
        docs=[
            {"type": t, "source": "a", "timestamp_millis": ts,
             "severity": 0, "reason": ""}
            for t, ts in [(TYPES[0], 9), (TYPES[1], 5), (TYPES[0], None),
                          (TYPES[0], 5), (TYPES[1], 3), (TYPES[1], 9)]
        ],
        windows=[(5, 9)],
    )
    def test_count_is_the_filtered_window_length(self, docs, windows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "count.db"
            db = SQLiteDatabase(path)
            try:
                for storage in (AnomalyStorage(MetricsRegistry()),
                                AnomalyStorage(MetricsRegistry(), db)):
                    storage.store_many(docs)
                    self._check(storage, windows)
                db.close()
                db = SQLiteDatabase(path)
                self._check(AnomalyStorage(MetricsRegistry(), db), windows)
            finally:
                db.close()

    def _check(self, storage, windows):
        for lo, hi in windows:
            window = storage.in_window(lo, hi)
            for t in self.COUNTED:
                want = sum(1 for d in window if t is None or d["type"] == t)
                assert storage.count_in_window(lo, hi, t) == want, (lo, hi, t)

    @pytest.mark.parametrize("anomaly_type", [None, TYPES[0]])
    def test_sqlite_count_walks_the_time_index(self, sqlite_db, anomaly_type):
        storage = AnomalyStorage(MetricsRegistry(), sqlite_db)
        storage.store_many(
            {"type": TYPES[n % 2], "source": "a", "timestamp_millis": n}
            for n in range(200)
        )
        statements = []
        sqlite_db._conn.set_trace_callback(statements.append)
        try:
            count = storage.count_in_window(50, 99, anomaly_type)
        finally:
            sqlite_db._conn.set_trace_callback(None)
        assert count == (50 if anomaly_type is None else 25)
        (statement,) = statements  # one query, bound values expanded
        plan = " ".join(
            row[-1] for row in sqlite_db.execute(
                "EXPLAIN QUERY PLAN " + statement
            )
        )
        assert "anomalies_time" in plan, plan
        assert "anomalies_type" not in plan, plan


# ----------------------------------------------------------------------
# Old-layout refusal
# ----------------------------------------------------------------------
def _old_layout_file(path, table, store_meta):
    """A database as the earlier schemaless engine left it."""
    conn = sqlite3.connect(str(path))
    conn.execute(
        'CREATE TABLE %s (_id INTEGER PRIMARY KEY, _doc TEXT NOT NULL, '
        '"source", "timestamp_millis")' % table
    )
    conn.execute(
        "INSERT INTO %s VALUES (0, '{\"source\": \"a\"}', 'a', 1)" % table
    )
    if store_meta:
        conn.execute(
            "CREATE TABLE _store_meta (store TEXT PRIMARY KEY, "
            "next_id INTEGER NOT NULL, field_kinds TEXT NOT NULL)"
        )
    conn.commit()
    conn.close()


def _schema(path):
    conn = sqlite3.connect(str(path))
    try:
        return (
            conn.execute(
                "SELECT type, name, sql FROM sqlite_master ORDER BY name"
            ).fetchall(),
            conn.execute("PRAGMA journal_mode").fetchone()[0],
        )
    finally:
        conn.close()


class TestOldLayoutRefused:
    def test_store_meta_file_is_refused_untouched(self, tmp_path):
        from repro.service.loglens_service import LogLensService

        path = tmp_path / "old.db"
        _old_layout_file(path, "logs", store_meta=True)
        before = _schema(path)
        with pytest.raises(StorageLayoutError) as caught:
            LogLensService(config=ServiceConfig(storage="sqlite:%s" % path))
        assert caught.value.table == "_store_meta"
        assert str(path) in str(caught.value)
        assert "_store_meta" in str(caught.value)
        assert _schema(path) == before

    @pytest.mark.parametrize("table", ["logs", "anomalies", "alerts"])
    def test_old_document_table_is_refused(self, tmp_path, table):
        path = tmp_path / "old.db"
        _old_layout_file(path, table, store_meta=False)
        database = SQLiteDatabase(path)
        try:
            with pytest.raises(StorageLayoutError) as caught:
                LogStorage(MetricsRegistry(), database)
                AnomalyStorage(MetricsRegistry(), database)
                AlertHistory(MetricsRegistry(), database)
        finally:
            database.close()
        assert caught.value.table == table
        assert caught.value.path == str(path)
        assert str(path) in str(caught.value) and repr(table) in str(
            caught.value
        )
        # Nothing was appended to the old table.
        assert run_readonly_sql(
            str(path), "SELECT COUNT(*) FROM %s" % table
        )[1] == [(1,)]


class TestRestartReopen:
    """Close the database, reopen it, and nothing observable changes."""

    def test_reopen_preserves_queries_and_ids(self, tmp_path):
        path = tmp_path / "replay.db"
        rng = random.Random(5)
        docs = randomized_docs(rng, 120)
        db = SQLiteDatabase(path)
        store = _table(db)
        first_ids = store.insert_many(docs)

        def reads(table):
            return {
                "all": table.all(),
                "match": table.where("source", "src-1"),
                "missing": table.where("type", None),
                "range": table.in_window(100, 600),
                "count": table.count(),
            }

        before = reads(store)
        db.close()

        db2 = SQLiteDatabase(path)
        try:
            reopened = _table(db2)
            assert reads(reopened) == before
            # _id assignment resumes exactly where it stopped.
            assert reopened.insert_many([{"n": -1}]) == [first_ids[-1] + 1]
        finally:
            db2.close()

    def test_reopen_preserves_poison_state(self, tmp_path):
        """A refused batch leaves nothing behind, across a reopen too."""
        path = tmp_path / "poison.db"
        batches = [
            [{"timestamp_millis": 5, "n": 0}],
            [{"timestamp_millis": 6, "n": 1},
             {"timestamp_millis": "noon", "n": 2}],
            [{"timestamp_millis": 7, "n": 3}],
        ]
        oracle = _table()
        db = SQLiteDatabase(path)
        store = _table(db)
        for batch in batches:
            for table in (oracle, store):
                try:
                    table.insert_many(batch)
                except TypeError:
                    pass
        before = store.in_window(0, 10)
        assert [(d["n"], d["_id"]) for d in before] == [(0, 0), (3, 1)]
        db.close()

        db2 = SQLiteDatabase(path)
        try:
            reopened = _table(db2)
            assert reopened.in_window(0, 10) == before
            assert reopened.all() == oracle.all()
            assert reopened.in_window(0, 10) == oracle.in_window(0, 10)
            assert run_readonly_sql(
                str(path), "SELECT COUNT(*) FROM documents"
            )[1] == [(2,)]
        finally:
            db2.close()

    def test_model_journal_round_trip(self, tmp_path):
        path = tmp_path / "models.db"
        db = SQLiteDatabase(path)
        storage = ModelStorage(journal=SQLiteModelJournal(db))
        for v in range(1, 8):
            storage.put("m", {"v": v, "nested": [v]})
        storage.put("other", {"x": 1})
        storage.prune("m", keep_last=3)
        storage.delete("other")
        db.close()

        db2 = SQLiteDatabase(path)
        try:
            restored = ModelStorage(journal=SQLiteModelJournal(db2))
            assert restored.names() == ["m"]
            assert restored.latest_version("m") == 7
            assert restored.get("m") == {"v": 7, "nested": [7]}
            assert restored.get("m", version=5) == {"v": 5, "nested": [5]}
            with pytest.raises(KeyError):
                restored.get("m", version=4)  # pruned before the restart
            # Numbering continues from the persisted history.
            assert restored.put("m", {"v": 8}) == 8
        finally:
            db2.close()


class TestServiceRestart:
    """A LogLensService stops, restarts on the same file, and resumes."""

    def _lines(self, eid, minute, finish=True):
        lines = [
            "2016/05/09 10:%02d:01 gate OPEN flow %s from 10.0.0.9"
            % (minute, eid),
            "2016/05/09 10:%02d:03 relay forwarding flow %s bytes 500"
            % (minute, eid),
        ]
        if finish:
            lines.append(
                "2016/05/09 10:%02d:09 gate CLOSE flow %s status done"
                % (minute, eid)
            )
        return lines

    def _training(self):
        lines = []
        for i in range(12):
            lines += self._lines("fl-%04d" % i, i % 50)
        return lines

    def test_stop_restart_resume(self, tmp_path):
        from repro.service.loglens_service import LogLensService

        spec = "sqlite:%s" % (tmp_path / "service.db")
        service = LogLensService(config=ServiceConfig(num_partitions=2, storage=spec))
        service.train(self._training())
        service.ingest(
            self._lines("fl-a", 30)
            + self._lines("fl-bad", 31, finish=False),
            source="app",
        )
        service.run_until_drained()
        service.final_flush()
        logs_before = service.log_storage.count()
        anomalies_before = service.anomaly_storage.count()
        version_before = service.model_storage.latest_version(
            "pattern_model"
        )
        assert anomalies_before == 1  # the missing_end flow
        service.close()

        restarted = LogLensService(config=ServiceConfig(num_partitions=2, storage=spec))
        try:
            # Archive, anomalies, and model history all survived.
            assert restarted.log_storage.count() == logs_before
            assert restarted.anomaly_storage.count() == anomalies_before
            assert restarted.model_storage.latest_version(
                "pattern_model"
            ) == version_before
            # Models were republished on construction: detection resumes
            # without retraining.
            restarted.ingest(
                self._lines("fl-bad2", 40, finish=False), source="app"
            )
            restarted.run_until_drained()
            restarted.final_flush()
            assert restarted.anomaly_storage.count() == (
                anomalies_before + 1
            )
            # The persisted archive replays through the pipeline.
            replayed = restarted.replay_from_storage("app")
            assert replayed > 0
        finally:
            restarted.close()

    def test_memory_service_has_no_database(self):
        from repro.service.loglens_service import LogLensService

        service = LogLensService(config=ServiceConfig(num_partitions=2))
        assert service.storage_config.kind == "memory"
        assert service.storage_database is None
        service.close()  # must be a no-op, not an error


class TestReadOnlySQL:
    def test_select_and_rejected_write(self, tmp_path):
        path = tmp_path / "sql.db"
        db = SQLiteDatabase(path)
        LogStorage(MetricsRegistry(), db).store_batch(
            [("one", "a", 1), ("two", "b", None)]
        )
        db.close()
        columns, rows = run_readonly_sql(
            str(path),
            "SELECT source, COUNT(*) FROM logs GROUP BY source "
            "ORDER BY source",
        )
        assert columns == ["source", "COUNT(*)"]
        assert rows == [("a", 1), ("b", 1)]
        with pytest.raises(sqlite3.OperationalError):
            run_readonly_sql(str(path), "DELETE FROM logs")
        # ... and the failed write really did not happen.
        assert run_readonly_sql(
            str(path), "SELECT COUNT(*) FROM logs"
        )[1] == [(2,)]


class TestSQLiteWritePath:
    """No table scan on write; the document gauges stay exact."""

    def test_writes_never_count_and_the_document_gauge_stays_exact(
        self, tmp_path
    ):
        path = tmp_path / "count.db"
        stores = Stores(path)
        statements = []
        stores.db._conn.set_trace_callback(statements.append)
        stores.logs.store("l0", "a", 1)
        stores.logs.store_batch([("l%d" % i, "b", i) for i in range(1, 6)])
        stores.anomalies.store({"type": "t", "source": "a"})
        stores.anomalies.store_many([{"type": "t"}, {"source": "b"}])
        stores.alerts.append({"rule": "r", "state": "firing"})
        assert stores.gauges() == [6, 3, 1]
        stores.anomalies.clear()
        assert stores.gauges() == [6, 0, 1]
        assert stores.anomalies.store_many([{"type": "t"}, {}]) == [3, 4]
        stores.db._conn.set_trace_callback(None)
        assert stores.gauges() == [6, 2, 1]
        assert statements, "the trace callback saw no statement"
        assert not [s for s in statements if "COUNT(" in s.upper()]
        stores.reopen()
        try:
            assert stores.gauges() == [6, 2, 1]
            assert stores.anomalies.count() == 2
            assert stores.anomalies.store({"type": "u"}) == 5
            assert stores.gauges() == [6, 3, 1]
        finally:
            stores.db.close()

    def test_columns_learned_mid_batch_fill_every_row(self, tmp_path):
        """Every row gets every fixed column, whichever keys its
        document holds and wherever in the batch they first appear."""
        path = tmp_path / "columns.db"
        db = SQLiteDatabase(path)
        store = AnomalyStorage(MetricsRegistry(), db)
        docs = [
            {"type": 1, "skip": None},
            {"source": "x", "_hidden": 3},
            {"type": 2.5, "c": [1], "source": True, "timestamp_millis": 9},
            {"c": "late", "skip": None},
        ]
        store.store_many(docs)
        store.store({"d": 7, "type": "text", "timestamp_millis": 4})
        docs.append({"d": 7, "type": "text", "timestamp_millis": 4})
        db.close()
        columns, rows = run_readonly_sql(
            str(path), "SELECT * FROM anomalies ORDER BY _id"
        )
        assert columns == [
            "_id", "type", "source", "timestamp_millis", "_doc",
        ]
        assert [row[:4] for row in rows] == [
            (0, 1, None, None),
            (1, None, "x", None),
            (2, 2.5, 1, 9),
            (3, None, None, None),
            (4, "text", None, 4),
        ]
        assert [json.loads(row[4]) for row in rows] == [
            dict(doc, _id=i) for i, doc in enumerate(docs)
        ]

    def test_tables_have_their_fixed_columns(self, tmp_path):
        path = tmp_path / "columns.db"
        stores = Stores(path)
        stores.db.close()
        columns = {
            table: run_readonly_sql(
                str(path), "SELECT * FROM %s" % table
            )[0]
            for table in ("logs", "anomalies", "alerts")
        }
        assert columns == {
            "logs": ["_id", "source", "timestamp_millis", "raw"],
            "anomalies": [
                "_id", "type", "source", "timestamp_millis", "_doc",
            ],
            "alerts": ["_id", "rule", "state", "timestamp_millis", "_doc"],
        }
