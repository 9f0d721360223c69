"""Unit tests for the micro-batch streaming engine."""

import pytest

from repro.streaming.engine import StreamingContext
from repro.streaming.records import StreamRecord, heartbeat_record


def records(*values, key=None):
    return [StreamRecord(value=v, key=key) for v in values]


class TestGraphExecution:
    def test_map(self):
        ctx = StreamingContext(num_partitions=2)
        out = ctx.source().map(
            lambda r, w: StreamRecord(value=r.value * 2, key=r.key)
        ).collector().view()
        ctx.run_batch(
            [StreamRecord(value=i, key=str(i)) for i in range(5)]
        )
        assert sorted(r.value for r in out) == [0, 2, 4, 6, 8]

    def test_map_none_drops(self):
        ctx = StreamingContext(num_partitions=1)
        out = ctx.source().map(
            lambda r, w: r if r.value % 2 == 0 else None
        ).collector().view()
        ctx.run_batch(records(0, 1, 2, 3))
        assert [r.value for r in out] == [0, 2]

    def test_flat_map(self):
        ctx = StreamingContext(num_partitions=1)
        out = ctx.source().flat_map(
            lambda r, w: [
                StreamRecord(value=r.value), StreamRecord(value=-r.value)
            ]
        ).collector().view()
        ctx.run_batch(records(1, 2))
        assert [r.value for r in out] == [1, -1, 2, -2]

    def test_filter(self):
        ctx = StreamingContext(num_partitions=1)
        out = ctx.source().filter(lambda r: r.value > 1).collector().view()
        ctx.run_batch(records(0, 1, 2, 3))
        assert [r.value for r in out] == [2, 3]

    def test_branching(self):
        ctx = StreamingContext(num_partitions=1)
        src = ctx.source()
        evens = src.filter(lambda r: r.value % 2 == 0).collector().view()
        odds = src.filter(lambda r: r.value % 2 == 1).collector().view()
        ctx.run_batch(records(1, 2, 3, 4))
        assert [r.value for r in evens] == [2, 4]
        assert [r.value for r in odds] == [1, 3]

    def test_chained_stages(self):
        ctx = StreamingContext(num_partitions=1)
        out = (
            ctx.source()
            .map(lambda r, w: StreamRecord(value=r.value + 1))
            .filter(lambda r: r.value > 2)
            .map(lambda r, w: StreamRecord(value=r.value * 10))
            .collector().view()
        )
        ctx.run_batch(records(0, 1, 2, 3))
        assert [r.value for r in out] == [30, 40]

    def test_sink(self):
        ctx = StreamingContext(num_partitions=1)
        seen = []
        ctx.source().sink(lambda r: seen.append(r.value))
        ctx.run_batch(records(7, 8))
        assert seen == [7, 8]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            StreamingContext(num_partitions=0)


class TestKeyedState:
    def test_state_is_per_partition_and_persistent(self):
        ctx = StreamingContext(num_partitions=2)

        def count(record, state, worker):
            n = state.get(record.key, 0) + 1
            state.put(record.key, n)
            yield StreamRecord(value=(record.key, n), key=record.key)

        out = ctx.source().map_with_state(count).collector().view()
        batch = [StreamRecord(value=i, key="a") for i in range(3)]
        ctx.run_batch(batch)
        ctx.run_batch(batch[:1])
        counts = dict((r.value for r in out[-1:]))
        assert counts == {"a": 4}  # state survived across batches

    def test_same_key_single_partition(self):
        ctx = StreamingContext(num_partitions=4)
        partitions_seen = set()

        def spy(record, state, worker):
            partitions_seen.add(worker.partition_id)
            return []

        ctx.source().map_with_state(spy)
        ctx.run_batch(
            [StreamRecord(value=i, key="same-event") for i in range(20)]
        )
        assert len(partitions_seen) == 1

    def test_heartbeat_reaches_every_partition_state(self):
        ctx = StreamingContext(num_partitions=3)
        swept = []

        def op(record, state, worker):
            if record.is_heartbeat:
                swept.append(worker.partition_id)
            return []

        ctx.source().map_with_state(op)
        ctx.run_batch([heartbeat_record("s", 1)])
        assert sorted(swept) == [0, 1, 2]


class TestModelUpdates:
    def test_rebroadcast_applied_between_batches(self):
        ctx = StreamingContext(num_partitions=2)
        bv = ctx.broadcast("model-v1")
        seen = []

        def op(record, worker):
            seen.append(bv.get_value(worker.block_manager))
            return None

        ctx.source().map(op)
        ctx.run_batch(records(1, 2))
        ctx.rebroadcast(bv, "model-v2")
        metrics = ctx.run_batch(records(3))
        assert metrics.model_updates_applied == 1
        assert seen == ["model-v1", "model-v1", "model-v2"]

    def test_zero_downtime_accounting(self):
        ctx = StreamingContext(num_partitions=1)
        bv = ctx.broadcast(1)
        ctx.source().map(lambda r, w: None)
        for i in range(5):
            ctx.rebroadcast(bv, i)
            ctx.run_batch(records(i))
        assert ctx.metrics.model_updates == 5
        assert ctx.metrics.downtime_seconds == 0.0
        assert ctx.metrics.batches == 5
        assert ctx.metrics.records == 5

    def test_state_survives_model_update(self):
        """The Section V-A requirement, at engine level."""
        ctx = StreamingContext(num_partitions=1)
        bv = ctx.broadcast("m1")

        def op(record, state, worker):
            state.put("persistent", state.get("persistent", 0) + 1)
            yield StreamRecord(value=state.get("persistent"))

        out = ctx.source().map_with_state(op).collector().view()
        ctx.run_batch(records(1))
        ctx.rebroadcast(bv, "m2")
        ctx.run_batch(records(2))
        assert [r.value for r in out] == [1, 2]


class TestBatchMetrics:
    def test_run_batches(self):
        ctx = StreamingContext(num_partitions=1)
        ctx.source().map(lambda r, w: None)
        history = ctx.run_batches([records(1, 2), records(3)])
        assert [m.records_in for m in history] == [2, 1]
        assert [m.batch_index for m in history] == [0, 1]
        assert len(ctx.metrics.batch_history) == 2


class TestBatchHistoryBound:
    def test_history_capped(self):
        ctx = StreamingContext(num_partitions=1)
        ctx.metrics.history_limit = 10
        ctx.source().map(lambda r, w: None)
        for i in range(25):
            ctx.run_batch(records(i))
        assert len(ctx.metrics.batch_history) == 10
        assert ctx.metrics.batch_history[-1].batch_index == 24
        assert ctx.metrics.batches == 25
