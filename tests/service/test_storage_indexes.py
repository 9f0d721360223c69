"""Regression pins and equivalence checks for the keyed document table.

Two layers:

* pins for the hot paths — one lock per batch, keyed and windowed reads
  that never walk the document list, read-only views, the documented
  orders — so they cannot silently regress;
* seeded randomized workloads asserting the table's indexed reads
  return exactly what a brute-force linear scan over the same documents
  returns, including batches that carry a value the table refuses.
"""

import random

import pytest

from repro.obs import MetricsRegistry
from repro.service.sqlite_store import SQLiteDatabase
from repro.service.storage import AnomalyStorage, document_table

KEYS = ("type", "source")


class _CountingLock:
    """Lock stand-in that counts acquisitions (reentrant, like RLock)."""

    def __init__(self):
        self.acquisitions = 0
        self._depth = 0

    def __enter__(self):
        if self._depth == 0:
            self.acquisitions += 1
        self._depth += 1
        return self

    def __exit__(self, *exc):
        self._depth -= 1
        return False

    def acquire(self):
        self.__enter__()

    def release(self):
        self.__exit__()


def _table(metrics=None, database=None, name="docs"):
    return document_table(
        name, KEYS, metrics or MetricsRegistry(), database
    )


class TestHotPathRegressions:
    def test_insert_many_takes_the_lock_once(self):
        """Pin: batch insert is one lock acquisition, not one per doc."""
        table = _table()
        counter = _CountingLock()
        table._lock = counter
        table.insert_many({"n": i} for i in range(100))
        assert counter.acquisitions == 1

    def test_get_does_not_scan(self):
        """Pin: keyed and windowed reads are index lookups, never a walk
        over the document list."""
        table = _table()
        ids = table.insert_many(
            {"source": "s%d" % (i % 5), "timestamp_millis": i, "n": i}
            for i in range(50)
        )
        # Make any linear scan blow up: the reads must not touch it.
        table._docs = None
        assert [d["_id"] for d in table.where("source", "s0")] == ids[::5]
        for doc_id in (ids[0], ids[25], ids[-1]):
            assert table.in_window(doc_id, doc_id)[0]["n"] == doc_id
        assert table.where("source", "nowhere") == []
        assert table.in_window(10**9, 10**9 + 1) == []

    def test_query_results_are_read_only_views(self):
        table = _table()
        table.insert_many([{"source": "a", "n": 1}])
        doc = table.where("source", "a")[0]
        with pytest.raises(TypeError):
            doc["n"] = 2
        with pytest.raises(TypeError):
            doc.pop("n")
        mutable = dict(doc)
        mutable["n"] = 2  # the documented escape hatch
        assert table.where("source", "a")[0]["n"] == 1

    def test_match_only_limit_keeps_insertion_order(self):
        """Pin the documented ordering contract of keyed reads."""
        table = _table()
        for i in range(10):
            table.insert_many([{"source": "s", "n": i}])
        hit = table.where("source", "s")
        assert [d["n"] for d in hit] == list(range(10))
        assert [d["_id"] for d in hit] == list(range(10))

    def test_range_query_orders_by_field_ties_by_insertion(self):
        table = _table()
        for n, ts in enumerate([30, 10, 20, 10, 40]):
            table.insert_many([{"timestamp_millis": ts, "n": n}])
        hit = table.in_window(10, 30)
        assert [(d["timestamp_millis"], d["n"]) for d in hit] == [
            (10, 1), (10, 3), (20, 2), (30, 0),
        ]


def brute_force(docs, match=None, window=None):
    """The reference semantics: one linear pass in insertion order,
    then a stable sort by time for a window."""
    out = []
    for doc in docs:
        if match is not None and any(
            doc.get(k) != v for k, v in match.items()
        ):
            continue
        if window is not None:
            value = doc.get("timestamp_millis")
            if value is None or not window[0] <= value <= window[1]:
                continue
        out.append(doc)
    if window is not None:
        out.sort(key=lambda d: d["timestamp_millis"])
    return out


def randomized_docs(rng, n):
    docs = []
    for i in range(n):
        doc = {"n": i}
        if rng.random() < 0.9:
            doc["source"] = "src-%d" % rng.randrange(6)
        if rng.random() < 0.8:
            doc["type"] = rng.choice(["a", "b", "c"])
        if rng.random() < 0.85:
            doc["timestamp_millis"] = rng.randrange(1000)
        docs.append(doc)
    return docs


def random_read(rng, table, stored):
    """One random keyed or windowed read; ``(got, expected)``."""
    if rng.random() < 0.5:
        key = rng.choice(KEYS)
        if key == "source":
            value = rng.choice(["src-%d" % rng.randrange(7), None])
        else:
            value = rng.choice(["a", "b", "c", "zzz", None])
        return table.where(key, value), brute_force(stored, {key: value})
    lo = rng.randrange(1000)
    window = (lo, lo + rng.randrange(300))
    return table.in_window(*window), brute_force(stored, window=window)


@pytest.fixture
def both_tables(tmp_path):
    """A fresh keyed document table in memory and one on SQLite."""
    db = SQLiteDatabase(tmp_path / "both.db")
    yield _table(), _table(database=db)
    db.close()


class TestIndexedEqualsBruteForce:
    """Indexed reads == linear-scan reads on seeded random workloads."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_query_equivalence(self, seed, tmp_path):
        db = SQLiteDatabase(tmp_path / "eq.db")
        try:
            for table in (_table(), _table(database=db)):
                rng = random.Random(seed)
                table.insert_many(randomized_docs(rng, 400))
                stored = table.all()  # reference order, with _id attached
                assert [d["_id"] for d in stored] == list(range(400))
                for _ in range(60):
                    got, expected = random_read(rng, table, stored)
                    assert got == expected
        finally:
            db.close()

    def test_interleaved_inserts_keep_indexes_fresh(self, both_tables):
        for table in both_tables:
            rng = random.Random(99)
            mirror = []
            for _ in range(8):
                batch = randomized_docs(rng, 50)
                ids = table.insert_many(batch)
                for doc, doc_id in zip(batch, ids):
                    mirror.append(dict(doc, _id=doc_id))
                match = {"source": "src-%d" % rng.randrange(6)}
                assert table.where("source", match["source"]) == brute_force(
                    mirror, match
                )
                lo = rng.randrange(800)
                assert table.in_window(lo, lo + 150) == brute_force(
                    mirror, window=(lo, lo + 150)
                )

    def test_unhashable_values_poison_and_fall_back(self, both_tables):
        """An unhashable key value is refused with its whole batch; the
        key's index keeps answering for every later document."""
        for table in both_tables:
            with pytest.raises(TypeError, match="'source'"):
                table.insert_many(
                    [{"source": "ok", "n": 0}, {"source": ["no"], "n": 1}]
                )
            assert table.count() == 0 and table.all() == []
            assert table.insert_many([{"source": "ok", "n": 1}]) == [0]
            assert [d["n"] for d in table.where("source", "ok")] == [1]
            table.insert_many([{"source": "ok", "n": 2}])
            assert [d["n"] for d in table.where("source", "ok")] == [1, 2]

    def test_uncomparable_values_poison_sorted_index(self, both_tables):
        """A time that is not a number is refused, so the time index
        never holds a value it cannot order."""
        for table in both_tables:
            table.insert_many([{"timestamp_millis": 5, "n": 0}])
            for bad in ("noon", "7", [7], float("nan")):
                with pytest.raises(TypeError, match="timestamp_millis"):
                    table.insert_many([{"timestamp_millis": bad, "n": 1}])
            table.insert_many([{"timestamp_millis": 7, "n": 2}])
            hit = table.in_window(0, 10)
            assert [(d["n"], d["_id"]) for d in hit] == [(0, 0), (2, 1)]

    def test_poisoning_mid_batch_falls_back(self, both_tables):
        """A refused document mid-batch stores none of the batch; the
        next batch lands in every index with the next ids."""
        for table in both_tables:
            table.insert_many([{"source": "a", "timestamp_millis": 1, "n": 0}])
            with pytest.raises(TypeError):
                table.insert_many([
                    {"source": "b", "timestamp_millis": 2, "n": 1},
                    {"source": ["bad"], "timestamp_millis": "bad", "n": 2},
                    {"source": "a", "timestamp_millis": 3, "n": 3},
                ])
            assert [d["n"] for d in table.all()] == [0]
            assert table.insert_many([
                {"source": "b", "timestamp_millis": 2, "n": 1},
                {"source": "a", "timestamp_millis": 3, "n": 3},
            ]) == [1, 2]
            assert [d["n"] for d in table.where("source", "a")] == [0, 3]
            assert [d["n"] for d in table.in_window(1, 3)] == [0, 1, 3]


class TestIndexGaugesAfterSingleInserts:
    """Pin: a single insert refreshes the gauge like a batch, and the
    indexes are the fixed set built at open."""

    def test_memory_index_gauges_count_every_insert(self):
        metrics = MetricsRegistry()
        table = _table(metrics, name="g")

        def gauge():
            return metrics.get("storage.documents", store="g").value

        table.insert_many([{"timestamp_millis": 0, "source": "a"}])
        assert gauge() == 1
        for ts in range(1, 6):
            table.insert_many([{"timestamp_millis": ts, "source": "a"}])
            assert gauge() == ts + 1
        table.insert_many([{"timestamp_millis": 6, "source": "b"}])
        assert gauge() == 7 == table.count()
        assert sorted(table._by_key) == sorted(KEYS)
        assert {k: len(v) for k, v in table._by_key["source"].items()} == {
            "a": 6, "b": 1,
        }
        assert table._times == list(range(7))

    def test_sqlite_index_gauges_after_single_inserts(self, tmp_path):
        metrics = MetricsRegistry()
        db = SQLiteDatabase(tmp_path / "gauges.db")
        try:
            table = _table(metrics, db, name="g")

            def gauge():
                return metrics.get("storage.documents", store="g").value

            def indexes():
                return [
                    row[0] for row in db.execute(
                        "SELECT name FROM sqlite_master WHERE type = "
                        "'index' AND tbl_name = 'g' ORDER BY name"
                    )
                ]

            at_open = indexes()
            assert at_open == ["g_source", "g_time", "g_type"]
            table.insert_many([{"timestamp_millis": 0, "source": "a"}])
            for ts in range(1, 6):
                table.insert_many([{"timestamp_millis": ts, "source": "a"}])
            assert gauge() == 6
            hit = table.in_window(0, 100)
            assert [d["timestamp_millis"] for d in hit] == [0, 1, 2, 3, 4, 5]

            table.where("source", "a")
            table.insert_many([{"timestamp_millis": 6, "source": "b"}])
            assert indexes() == at_open
            assert gauge() == 7
        finally:
            db.close()


class TestAnomalyStorageWindows:
    def test_in_window_matches_linear_filter(self):
        rng = random.Random(7)
        storage = AnomalyStorage()
        rows = []
        for i in range(300):
            row = {
                "type": rng.choice(["missing_end", "duration_violation"]),
                "source": "s%d" % rng.randrange(4),
                "timestamp_millis": rng.randrange(5000),
                "n": i,
            }
            rows.append(row)
            storage.store(row)
        for _ in range(20):
            lo = rng.randrange(5000)
            hi = lo + rng.randrange(1500)
            got = storage.in_window(lo, hi)
            want = [
                r for r in rows if lo <= r["timestamp_millis"] <= hi
            ]
            assert sorted(d["n"] for d in got) == sorted(
                r["n"] for r in want
            )
            # and the window comes back in time order
            times = [d["timestamp_millis"] for d in got]
            assert times == sorted(times)
