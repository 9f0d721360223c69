"""Cross-backend equivalence: SQLite backend vs the in-memory oracle.

The in-memory :class:`DocumentStore` is the reference implementation of
the :class:`StorageBackend` protocol; this suite holds the persistent
:class:`SQLiteDocumentStore` to its exact observable behaviour:

* the randomized match/range/limit workloads from the indexed-store
  suite, with both backends fed the same documents and compared
  query-by-query (order included);
* the awkward-value workloads (unhashable, uncomparable, mixed-type,
  bool) that poison in-memory indexes and must route the SQLite backend
  to its identical linear fallback;
* restart-reopen round trips: same query results, stable ``_id``
  assignment, and persisted poison state after close + reopen;
* the model journal's version history (including stable numbering
  across pruning) surviving a restart;
* a full service stop/restart on one database file.
"""

import json
import random

import pytest

from repro.service.config import ServiceConfig
from repro.service.backends import (
    StorageBackend,
    parse_storage_spec,
)
from repro.service.sqlite_store import (
    SQLiteDatabase,
    SQLiteDocumentStore,
    SQLiteModelJournal,
    run_readonly_sql,
)
from repro.service.storage import DocumentStore, ModelStorage

from .test_storage_indexes import brute_force, randomized_docs


@pytest.fixture(params=["memory", "sqlite"])
def store_factory(request, tmp_path):
    """A factory of protocol-conformant stores for the current backend."""
    databases = []

    def make(name="documents"):
        if request.param == "memory":
            return DocumentStore(name=name)
        db = SQLiteDatabase(tmp_path / ("%s.db" % name))
        databases.append(db)
        return SQLiteDocumentStore(db, name)

    make.backend = request.param
    yield make
    for db in databases:
        db.close()


@pytest.fixture
def sqlite_db(tmp_path):
    db = SQLiteDatabase(tmp_path / "store.db")
    yield db
    db.close()


class TestProtocolConformance:
    def test_both_backends_satisfy_the_protocol(self, store_factory):
        assert isinstance(store_factory(), StorageBackend)

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


class TestBackendsAgreeOnRandomWorkloads:
    """Same docs + same queries -> byte-identical results, both backends."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_equivalence_vs_oracle(self, seed, tmp_path):
        rng = random.Random(seed)
        docs = randomized_docs(rng, 300)
        oracle = DocumentStore()
        db = SQLiteDatabase(tmp_path / "eq.db")
        try:
            subject = SQLiteDocumentStore(db, "logs")
            assert oracle.insert_many(docs) == subject.insert_many(docs)
            for _ in range(50):
                match = None
                if rng.random() < 0.7:
                    match = {"source": "src-%d" % rng.randrange(7)}
                    if rng.random() < 0.4:
                        match["type"] = rng.choice(["a", "b", "c", "zzz"])
                range_ = None
                if rng.random() < 0.6:
                    lo = rng.randrange(1000)
                    range_ = ("ts", lo, lo + rng.randrange(300))
                limit = rng.choice([None, None, 1, 5, 50])
                want = oracle.query(match=match, range_=range_, limit=limit)
                got = subject.query(match=match, range_=range_, limit=limit)
                assert got == want, (match, range_, limit)
        finally:
            db.close()

    @pytest.mark.parametrize("seed", [11, 12])
    def test_sqlite_matches_brute_force(self, seed, tmp_path):
        rng = random.Random(seed)
        docs = randomized_docs(rng, 200)
        db = SQLiteDatabase(tmp_path / "bf.db")
        try:
            store = SQLiteDocumentStore(db, "logs")
            store.insert_many(docs)
            stored = store.query()
            for _ in range(30):
                match = {"source": "src-%d" % rng.randrange(7)}
                assert store.query(match=match) == brute_force(
                    stored, match=match
                )
                lo = rng.randrange(1000)
                range_ = ("ts", lo, lo + 250)
                want = sorted(
                    brute_force(stored, range_=range_),
                    key=lambda d: (d["ts"], d["_id"]),
                )
                assert store.query(range_=range_) == want
        finally:
            db.close()

    def test_interleaved_batches_stay_equivalent(self, tmp_path):
        rng = random.Random(99)
        oracle = DocumentStore()
        db = SQLiteDatabase(tmp_path / "inter.db")
        try:
            subject = SQLiteDocumentStore(db, "logs")
            for _ in range(6):
                batch = randomized_docs(rng, 40)
                assert oracle.insert_many(batch) == subject.insert_many(
                    batch
                )
                match = {"source": "src-%d" % rng.randrange(6)}
                assert subject.query(match=match) == oracle.query(
                    match=match
                )
                lo = rng.randrange(800)
                assert subject.query(
                    range_=("ts", lo, lo + 150)
                ) == oracle.query(range_=("ts", lo, lo + 150))
        finally:
            db.close()


class TestBackendSurfaceEquivalence:
    """distinct/count/get/clear/None-probe parity on every backend pair."""

    AWKWARD = [
        {"source": "a", "ts": 1, "n": 0},
        {"source": ["not", "hashable"], "ts": 2, "n": 1},
        {"source": "b", "n": 2},                      # ts missing
        {"source": "a", "ts": "noon", "n": 3},        # mixed-type ts
        {"source": None, "ts": 4, "n": 4},            # explicit None
        {"flag": True, "ts": 5, "n": 5},              # bool field
        {"source": "b", "ts": 5, "n": 6},             # tie on ts
    ]

    def _pair(self, tmp_path):
        oracle = DocumentStore()
        db = SQLiteDatabase(tmp_path / "pair.db")
        subject = SQLiteDocumentStore(db, "logs")
        return oracle, subject, db

    def test_awkward_values_agree(self, tmp_path):
        oracle, subject, db = self._pair(tmp_path)
        try:
            assert oracle.insert_many(self.AWKWARD) == subject.insert_many(
                self.AWKWARD
            )
            probes = [
                {"source": "a"},
                {"source": None},          # matches missing too
                {"source": ["not", "hashable"]},
                {"flag": True},
                {"missing_field": None},
            ]
            for match in probes:
                assert subject.query(match=match) == oracle.query(
                    match=match
                ), match
                assert subject.count(match=match) == oracle.count(
                    match=match
                )
            for range_ in [("ts", 1, 5), ("ts", None, 4), ("n", 2, None)]:
                assert subject.query(range_=range_) == oracle.query(
                    range_=range_
                ), range_
        finally:
            db.close()

    def test_distinct_and_get_agree(self, tmp_path):
        oracle, subject, db = self._pair(tmp_path)
        try:
            oracle.insert_many(self.AWKWARD)
            ids = subject.insert_many(self.AWKWARD)
            for field in ("source", "ts", "flag", "nope"):
                assert subject.distinct(field) == oracle.distinct(field)
            for doc_id in ids + [10**9]:
                assert subject.get(doc_id) == oracle.get(doc_id)
        finally:
            db.close()

    def test_clear_keeps_id_monotonic(self, store_factory):
        store = store_factory()
        assert store.insert_many([{"n": 0}, {"n": 1}]) == [0, 1]
        store.clear()
        assert store.count() == 0
        assert store.query() == []
        assert store.insert({"n": 2}) == 2  # ids never reused

    def test_insertion_order_and_range_order_contract(self, store_factory):
        store = store_factory()
        for n, ts in enumerate([30, 10, 20, 10, 40]):
            store.insert({"ts": ts, "n": n, "source": "s"})
        assert [d["n"] for d in store.query(match={"source": "s"})] == [
            0, 1, 2, 3, 4,
        ]
        hit = store.query(range_=("ts", 10, 30))
        assert [(d["ts"], d["n"]) for d in hit] == [
            (10, 1), (10, 3), (20, 2), (30, 0),
        ]
        assert [d["n"] for d in store.query(range_=("ts", 10, 30), limit=2)
                ] == [1, 3]


class TestRestartReopen:
    """Close the database, reopen it, and nothing observable changes."""

    def test_reopen_preserves_queries_and_ids(self, tmp_path):
        path = tmp_path / "replay.db"
        rng = random.Random(5)
        docs = randomized_docs(rng, 120)
        db = SQLiteDatabase(path)
        store = SQLiteDocumentStore(db, "logs")
        first_ids = store.insert_many(docs)
        before = {
            "all": store.query(),
            "match": store.query(match={"source": "src-1"}),
            "range": store.query(range_=("ts", 100, 600)),
            "distinct": store.distinct("source"),
            "count": store.count(),
        }
        db.close()

        db2 = SQLiteDatabase(path)
        try:
            reopened = SQLiteDocumentStore(db2, "logs")
            assert reopened.query() == before["all"]
            assert reopened.query(
                match={"source": "src-1"}
            ) == before["match"]
            assert reopened.query(
                range_=("ts", 100, 600)
            ) == before["range"]
            assert reopened.distinct("source") == before["distinct"]
            assert reopened.count() == before["count"]
            # _id assignment resumes exactly where it stopped.
            assert reopened.insert({"n": -1}) == first_ids[-1] + 1
        finally:
            db2.close()

    def test_reopen_preserves_poison_state(self, tmp_path):
        """A field that fell back to linear scans stays that way."""
        path = tmp_path / "poison.db"
        db = SQLiteDatabase(path)
        store = SQLiteDocumentStore(db, "logs")
        store.insert_many(
            [{"ts": 5, "n": 0}, {"ts": "noon", "n": 1}, {"ts": 7, "n": 2}]
        )
        before = store.query(range_=("ts", 0, 10))
        assert [d["n"] for d in before] == [0, 2]
        db.close()

        db2 = SQLiteDatabase(path)
        try:
            reopened = SQLiteDocumentStore(db2, "logs")
            assert reopened.query(range_=("ts", 0, 10)) == before
            oracle = DocumentStore()
            oracle.insert_many(
                [
                    {"ts": 5, "n": 0},
                    {"ts": "noon", "n": 1},
                    {"ts": 7, "n": 2},
                ]
            )
            assert reopened.query(
                range_=("ts", 0, 10)
            ) == oracle.query(range_=("ts", 0, 10))
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
        store = SQLiteDocumentStore(db, "logs")
        store.insert_many(
            [{"source": "a", "n": 1}, {"source": "b", "n": 2}]
        )
        db.close()
        columns, rows = run_readonly_sql(
            str(path),
            "SELECT source, COUNT(*) FROM logs GROUP BY source "
            "ORDER BY source",
        )
        assert columns == ["source", "COUNT(*)"]
        assert rows == [("a", 1), ("b", 1)]
        import sqlite3

        with pytest.raises(sqlite3.OperationalError):
            run_readonly_sql(str(path), "DELETE FROM logs")
        # ... and the failed write really did not happen.
        assert run_readonly_sql(
            str(path), "SELECT COUNT(*) FROM logs"
        )[1] == [(2,)]


class TestSQLiteWritePath:
    """One pass per batch: no table scan on write, exact typed columns."""

    def test_writes_never_count_and_the_document_gauge_stays_exact(
        self, tmp_path
    ):
        from repro.obs import MetricsRegistry

        path = tmp_path / "count.db"
        metrics = MetricsRegistry()
        db = SQLiteDatabase(path)
        store = SQLiteDocumentStore(db, "logs", metrics=metrics)
        gauge = metrics.get("storage.documents", store="logs")
        statements = []
        db._conn.set_trace_callback(statements.append)
        store.insert({"n": 0})
        store.insert_many([{"n": i} for i in range(1, 6)])
        assert gauge.value == 6
        store.clear()
        assert gauge.value == 0
        store.insert_many([{"n": i} for i in range(3)])
        store.insert({"n": 3})
        db._conn.set_trace_callback(None)
        assert gauge.value == 4 and store.count() == 4
        assert statements, "the trace callback saw no statement"
        assert not [s for s in statements if "COUNT(" in s.upper()]
        db.close()

        reopened_metrics = MetricsRegistry()
        db2 = SQLiteDatabase(path)
        try:
            reopened = SQLiteDocumentStore(
                db2, "logs", metrics=reopened_metrics
            )
            reopened_gauge = reopened_metrics.get(
                "storage.documents", store="logs"
            )
            assert reopened_gauge.value == 4 and reopened.count() == 4
            reopened.insert_many([{"n": 4}, {"n": 5}])
            assert reopened_gauge.value == 6 and reopened.count() == 6
        finally:
            db2.close()

    def test_columns_learned_mid_batch_fill_every_row(self, tmp_path):
        path = tmp_path / "columns.db"
        db = SQLiteDatabase(path)
        store = SQLiteDocumentStore(db, "logs")
        store.insert_many(
            [
                {"a": 1, "skip": None},
                {"b": "x", "_hidden": 3},
                {"a": 2.5, "c": [1], "b": True},
                {"c": "late", "skip": None},
            ]
        )
        store.insert({"d": 7, "a": "text"})
        db.close()
        columns, rows = run_readonly_sql(
            str(path), "SELECT * FROM logs ORDER BY _id"
        )
        # Columns appear in first-value order; a name that is never
        # given a value, or cannot be a column, gets none.
        assert columns == ["_id", "_doc", "a", "b", "c", "d"]
        assert [row[:1] + row[2:] for row in rows] == [
            (0, 1, None, None, None),
            (1, None, "x", None, None),
            (2, 2.5, None, None, None),
            (3, None, None, "late", None),
            (4, "text", None, None, 7),
        ]
        kinds = run_readonly_sql(
            str(path),
            "SELECT field_kinds FROM _store_meta WHERE store = 'logs'",
        )[1][0][0]
        assert json.loads(kinds) == {
            "a": "mixed", "b": "other", "_hidden": "other", "c": "other",
            "d": "num",
        }
