"""Unit tests for log/model/anomaly storage."""

import pytest

from repro.obs import MetricsRegistry
from repro.service.storage import (
    AnomalyStorage,
    LogStorage,
    ModelStorage,
    document_table,
)


def _table(keys=("k",)):
    """A keyed document table in memory."""
    return document_table("docs", keys, MetricsRegistry())


class TestDocumentStore:
    def test_insert_and_get(self):
        table = _table()
        assert table.insert_many([{"a": 1}]) == [0]
        assert table.all() == [{"a": 1, "_id": 0}]
        assert table.where("k", None) == [{"a": 1, "_id": 0}]
        assert table.where("k", "nowhere") == []

    def test_insert_copies(self):
        table = _table()
        doc = {"a": 1}
        doc_id = table.insert_many([doc])[0]
        doc["a"] = 2
        assert table.all()[doc_id]["a"] == 1
        assert "_id" not in doc

    def test_match_query(self):
        table = _table()
        table.insert_many([{"k": "x", "n": 1}, {"k": "y", "n": 2}])
        assert [d["n"] for d in table.where("k", "x")] == [1]

    def test_range_query(self):
        table = _table()
        table.insert_many({"timestamp_millis": n} for n in range(5))
        docs = table.in_window(1, 3)
        assert [d["timestamp_millis"] for d in docs] == [1, 2, 3]
        docs = table.in_window(-(2**63), 2)
        assert [d["timestamp_millis"] for d in docs] == [0, 1, 2]

    def test_range_skips_missing_field(self):
        table = _table()
        table.insert_many(
            [{"timestamp_millis": 1}, {"other": 9}, {"timestamp_millis": None}]
        )
        assert len(table.in_window(0, 10)) == 1
        assert table.count() == 3

    def test_count_and_clear(self):
        table = _table()
        table.insert_many([{"k": "x"}, {"k": "y"}])
        assert table.count() == 2
        assert len(table.where("k", "x")) == 1
        table.clear()
        assert table.count() == 0
        assert table.all() == [] and table.where("k", "x") == []
        assert table.insert_many([{"k": "x"}]) == [2]  # ids never reused


class TestInsertManyMidBatchPoison:
    """A batch holding a value the table refuses stores none of it.

    Regression: the in-memory table appended each document before
    indexing it, so a key value it could not hash left the document
    stored but missing from every later index, and the time index could
    take a value it cannot order.  Every document of a batch is checked
    first; a refused batch leaves the table and every index as it was.
    """

    def test_hash_poison_keeps_next_hash_index_current(self):
        table = _table(("a", "b"))
        table.insert_many([{"a": 1, "b": "x"}])
        with pytest.raises(TypeError, match="'a'"):
            table.insert_many(
                [
                    {"a": 2, "b": "y"},
                    {"a": [1], "b": "y"},  # an unhashable "a"
                ]
            )
        assert table.count() == 1 and table.where("b", "y") == []
        table.insert_many([{"a": 2, "b": "y"}, {"a": 3, "b": "y"}])
        # Both batch docs are visible through the "b" index.
        docs = table.where("b", "y")
        assert [d["_id"] for d in docs] == [1, 2]
        assert [d["_id"] for d in table.where("a", 2)] == [1]
        assert [d["_id"] for d in table.all()] == [0, 1, 2]

    def test_sorted_poison_keeps_next_sorted_index_current(self):
        table = _table()
        table.insert_many([{"timestamp_millis": 5}])
        with pytest.raises(TypeError, match="timestamp_millis"):
            table.insert_many(
                [
                    {"timestamp_millis": 20},
                    {"timestamp_millis": "s"},  # str vs int: unordered
                ]
            )
        table.insert_many([{"timestamp_millis": 30}, {"timestamp_millis": 6}])
        docs = table.in_window(0, 35)
        assert [d["timestamp_millis"] for d in docs] == [5, 6, 30]
        assert [d["_id"] for d in docs] == [0, 2, 1]


class TestLogStorage:
    def test_by_source(self):
        storage = LogStorage()
        storage.store("l1", "a")
        storage.store("l2", "b")
        storage.store("l3", "a")
        assert storage.by_source("a") == ["l1", "l3"]
        assert storage.sources() == ["a", "b"]
        assert storage.count() == 3
        assert storage.count("a") == 2

    def test_time_range_window(self):
        """The model-rebuild window (last seven days of logs)."""
        storage = LogStorage()
        for ts in (100, 200, 300, 400):
            storage.store("log@%d" % ts, "src", timestamp_millis=ts)
        window = storage.time_range("src", 150, 350)
        assert window == ["log@200", "log@300"]

    def test_store_many(self):
        storage = LogStorage()
        storage.store_many(["a", "b"], "src")
        assert storage.count("src") == 2

    def test_store_many_with_timestamps(self):
        """Regression: store_many hardcoded timestamp_millis=None, so
        batch-archived rows were permanently invisible to time_range."""
        storage = LogStorage()
        storage.store_many(
            ["a", "b", "c"], "src", timestamps=[100, 200, None]
        )
        assert storage.time_range("src", 50, 250) == ["a", "b"]
        # The None-timestamp row stays replayable via by_source.
        assert storage.by_source("src") == ["a", "b", "c"]
        assert storage.count("src") == 3

    def test_store_many_timestamp_length_mismatch(self):
        storage = LogStorage()
        with pytest.raises(ValueError):
            storage.store_many(["a", "b"], "src", timestamps=[100])
        assert storage.count("src") == 0


class TestModelStorage:
    def test_versioning(self):
        storage = ModelStorage()
        assert storage.put("m", {"v": 1}) == 1
        assert storage.put("m", {"v": 2}) == 2
        assert storage.get("m") == {"v": 2}
        assert storage.get("m", version=1) == {"v": 1}
        assert storage.latest_version("m") == 2

    def test_unknown_name(self):
        storage = ModelStorage()
        with pytest.raises(KeyError):
            storage.get("nope")
        with pytest.raises(KeyError):
            storage.latest_version("nope")

    def test_unknown_version(self):
        storage = ModelStorage()
        storage.put("m", {})
        with pytest.raises(KeyError):
            storage.get("m", version=5)

    def test_names_and_delete(self):
        storage = ModelStorage()
        storage.put("b", {})
        storage.put("a", {})
        assert storage.names() == ["a", "b"]
        storage.delete("a")
        assert storage.names() == ["b"]
        with pytest.raises(KeyError):
            storage.delete("a")

    def test_get_returns_copy(self):
        storage = ModelStorage()
        storage.put("m", {"k": 1})
        storage.get("m")["k"] = 99
        assert storage.get("m")["k"] == 1

    def test_get_returns_deep_copy(self):
        """Regression: get/put made shallow dict copies, so mutating a
        nested list of a retrieved model corrupted the stored version."""
        storage = ModelStorage()
        storage.put("m", {"patterns": [{"id": 1}], "ids": [1, 2]})
        got = storage.get("m")
        got["ids"].append(99)
        got["patterns"][0]["id"] = 77
        assert storage.get("m") == {"patterns": [{"id": 1}], "ids": [1, 2]}

    def test_put_stores_deep_copy(self):
        storage = ModelStorage()
        model = {"ids": [1]}
        storage.put("m", model)
        model["ids"].append(2)
        assert storage.get("m") == {"ids": [1]}


class TestAnomalyStorage:
    def _doc(self, type_="missing_end", source="s1", ts=100):
        return {
            "type": type_, "source": source, "timestamp_millis": ts,
            "reason": "r", "severity": 2,
        }

    def test_store_and_query(self):
        storage = AnomalyStorage()
        storage.store(self._doc())
        storage.store(self._doc(type_="unparsed_log", ts=200))
        assert storage.count() == 2
        assert len(storage.by_type("missing_end")) == 1
        assert len(storage.by_source("s1")) == 2
        assert len(storage.in_window(150, 250)) == 1

    def test_clear(self):
        storage = AnomalyStorage()
        storage.store(self._doc())
        storage.clear()
        assert storage.count() == 0
        assert storage.all() == []
        assert storage.by_type("missing_end") == []
        assert storage.in_window(0, 1000) == []
        assert storage.store(self._doc()) == 1  # ids never reused


class TestModelStoragePruning:
    def test_prune_keeps_newest_with_stable_numbers(self):
        storage = ModelStorage()
        for v in range(1, 8):
            storage.put("m", {"v": v})
        dropped = storage.prune("m", keep_last=3)
        assert dropped == 4
        assert storage.latest_version("m") == 7
        assert storage.get("m") == {"v": 7}
        assert storage.get("m", version=5) == {"v": 5}
        with pytest.raises(KeyError):
            storage.get("m", version=4)  # pruned

    def test_put_after_prune_continues_numbering(self):
        storage = ModelStorage()
        for v in range(1, 5):
            storage.put("m", {"v": v})
        storage.prune("m", keep_last=1)
        assert storage.put("m", {"v": 5}) == 5
        assert storage.get("m", version=5) == {"v": 5}

    def test_prune_noop_when_few_versions(self):
        storage = ModelStorage()
        storage.put("m", {"v": 1})
        assert storage.prune("m", keep_last=5) == 0
        assert storage.get("m", version=1) == {"v": 1}

    def test_prune_validation(self):
        storage = ModelStorage()
        with pytest.raises(KeyError):
            storage.prune("missing")
        storage.put("m", {})
        with pytest.raises(ValueError):
            storage.prune("m", keep_last=0)
