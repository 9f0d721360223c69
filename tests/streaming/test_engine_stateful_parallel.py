"""Deeper engine tests: stateful operators across partitions, and
engine/partitioner interaction invariants."""

import pytest

from repro.streaming import EXECUTION_BACKENDS
from repro.streaming.engine import StreamingContext
from repro.streaming.records import StreamRecord, heartbeat_record


def _heartbeat_partition(record, state, worker):
    if record.is_heartbeat:
        yield StreamRecord(value=worker.partition_id)


class TestPartitionedState:
    @pytest.mark.parametrize("execution", EXECUTION_BACKENDS)
    def test_heartbeat_fanout(self, execution):
        ctx = StreamingContext(num_partitions=4, execution=execution)
        hits = ctx.source().map_with_state(_heartbeat_partition).collector()
        try:
            ctx.run_batch([heartbeat_record("s", 1)])
        finally:
            ctx.shutdown()
        assert [r.value for r in hits.snapshot()] == [0, 1, 2, 3]

    def test_state_never_shared_across_partitions(self):
        ctx = StreamingContext(num_partitions=4)
        state_ids = {}

        def spy(record, state, worker):
            state_ids.setdefault(worker.partition_id, id(state))
            assert state_ids[worker.partition_id] == id(state)
            return []

        ctx.source().map_with_state(spy)
        ctx.run_batch(
            [StreamRecord(value=i, key="k%d" % i) for i in range(40)]
        )
        assert len(set(state_ids.values())) == len(state_ids)


class TestEngineInvariants:
    def test_records_reach_exactly_one_partition(self):
        ctx = StreamingContext(num_partitions=4)
        seen = []

        def op(record, worker):
            seen.append((record.value, worker.partition_id))
            return None

        ctx.source().map(op)
        ctx.run_batch(
            [StreamRecord(value=i, key="k%d" % i) for i in range(100)]
        )
        values = [v for v, _ in seen]
        assert sorted(values) == list(range(100))

    def test_empty_batch_is_cheap_noop(self):
        ctx = StreamingContext(num_partitions=2)
        ctx.source().map(lambda r, w: None)
        metrics = ctx.run_batch([])
        assert metrics.records_in == 0
        assert ctx.metrics.batches == 1

    def test_operator_exception_propagates(self):
        """The engine does not swallow program-logic bugs."""
        ctx = StreamingContext(num_partitions=1)

        def boom(record, worker):
            raise RuntimeError("operator bug")

        ctx.source().map(boom)
        try:
            ctx.run_batch([StreamRecord(value=1)])
            assert False, "expected RuntimeError"
        except RuntimeError:
            pass

    def test_two_sources_run_independently(self):
        ctx = StreamingContext(num_partitions=1)
        a_out = ctx.source().collector().view()
        b_out = ctx.source().map(
            lambda r, w: StreamRecord(value=r.value * -1)
        ).collector().view()
        ctx.run_batch([StreamRecord(value=5)])
        assert [r.value for r in a_out] == [5]
        assert [r.value for r in b_out] == [-5]
