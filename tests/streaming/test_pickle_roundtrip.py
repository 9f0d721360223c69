"""Pickle round-trips for everything the process backend ships.

The spawn-based :class:`~repro.streaming.execution.ProcessBackend`
serialises records, models, broadcast handles, retry/fault machinery,
and error objects across process boundaries.  These tests pin the
wire-worthiness of each type in isolation so a pickling regression
fails here with a named type, not deep inside a worker process.
"""

import pickle

import pytest

from repro.bench.workloads import parser_workload
from repro.errors import (
    BroadcastError,
    OperatorError,
    QuarantinedRecordError,
)
from repro.faults import FaultPlan, ManualClock
from repro.parsing.parser import FastLogParser
from repro.parsing.tokenizer import Tokenizer
from repro.streaming import (
    BlockManager,
    QuarantinedRecord,
    RetryPolicy,
    StreamRecord,
    StreamingContext,
    heartbeat_record,
)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestRecords:
    def test_stream_record(self):
        record = StreamRecord(
            value={"n": 3}, key="k", source="app", timestamp_millis=12
        )
        assert roundtrip(record) == record

    def test_heartbeat_record_keeps_flag(self):
        hb = roundtrip(heartbeat_record("app", 99))
        assert hb.is_heartbeat
        assert hb.timestamp_millis == 99

    def test_quarantined_record(self):
        q = QuarantinedRecord(
            record=StreamRecord(value="bad", key="b"),
            error="boom",
            error_type="RuntimeError",
            node_id=4,
            kind="map",
            partition_id=1,
            attempts=3,
        )
        loaded = roundtrip(q)
        assert loaded == q


class TestParsingTypes:
    def test_tokenized_log(self):
        tlog = Tokenizer().tokenize("2024-01-01 10:00:00 INFO job_1 start")
        loaded = roundtrip(tlog)
        assert [t.text for t in loaded.tokens] == [
            t.text for t in tlog.tokens
        ]

    def test_pattern_model_parses_identically_after_roundtrip(self):
        w = parser_workload(8, 80)
        parser = FastLogParser(w.model, tokenizer=Tokenizer())
        loaded = FastLogParser(roundtrip(w.model), tokenizer=Tokenizer())
        for line in w.lines[:20]:
            a, b = parser.parse(line), loaded.parse(line)
            assert type(a) is type(b)
            assert getattr(a, "fields", None) == getattr(b, "fields", None)


class TestBroadcast:
    def test_variable_drops_manager_and_rehydrates_from_cache(self):
        ctx = StreamingContext(num_partitions=1)
        bv = ctx.broadcast({"v": 1})
        loaded = roundtrip(bv)
        assert loaded.bv_id == bv.bv_id
        # Worker-side: the backend pre-populates the block-manager
        # cache; a populated cache serves the value without a manager.
        blocks = BlockManager(worker_id=0)
        blocks.put(loaded.bv_id, {"v": 1})
        assert loaded.get_value(blocks) == {"v": 1}
        ctx.shutdown()

    def test_unbroadcast_miss_raises_instead_of_hanging(self):
        ctx = StreamingContext(num_partitions=1)
        bv = roundtrip(ctx.broadcast({"v": 1}))
        with pytest.raises(BroadcastError):
            bv.get_value(BlockManager(worker_id=0))
        ctx.shutdown()


class TestFaultMachinery:
    def test_shared_clock_identity_survives_one_pickle(self):
        """Policy and plan share one ManualClock; the worker must see
        *one* clock too, or sleeps and injections would diverge.  This
        is why the backend ships its init payload as a single object."""
        clock = ManualClock()
        plan = FaultPlan(clock=clock).fail_first("operator:map:*", 2)
        policy = RetryPolicy(
            max_attempts=3, base_delay_seconds=0.5, clock=clock
        )
        loaded_policy, loaded_plan = roundtrip((policy, plan))
        assert loaded_policy.clock is loaded_plan.clock
        loaded_policy.clock.sleep(1.5)
        assert loaded_plan.clock.total_slept == pytest.approx(1.5)

    def test_manual_clock_state_preserved_and_lock_recreated(self):
        clock = ManualClock()
        clock.sleep(0.25)
        clock.advance(1.0)
        loaded = roundtrip(clock)
        assert loaded.monotonic() == pytest.approx(clock.monotonic())
        assert loaded.sleeps == [pytest.approx(0.25)]
        loaded.sleep(0.5)  # lock works post-unpickle

    def test_fault_plan_rules_and_counters_preserved(self):
        plan = FaultPlan().fail_first("operator:map:*", 2)
        loaded = roundtrip(plan)
        assert loaded.sync_state() == plan.sync_state()


class TestErrorTypes:
    def test_operator_error_keyword_only_ctor_roundtrips(self):
        err = OperatorError(
            "bad things", node_id=3, kind="map", partition_id=1, attempts=2
        )
        loaded = roundtrip(err)
        assert isinstance(loaded, OperatorError)
        assert str(loaded) == str(err)
        assert (loaded.node_id, loaded.kind, loaded.attempts) == (3, "map", 2)

    def test_quarantined_record_error_keeps_record(self):
        err = QuarantinedRecordError(
            "gave up",
            record=StreamRecord(value="bad", key="b"),
            node_id=1,
            kind="flat_map",
            partition_id=0,
            attempts=4,
        )
        loaded = roundtrip(err)
        assert isinstance(loaded, QuarantinedRecordError)
        assert loaded.record.value == "bad"
        assert loaded.attempts == 4
        assert loaded.kind == "flat_map"
