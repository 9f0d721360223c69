"""Columnar codec round-trips: randomized records, every column shape."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.parsing.parser import ParsedLog
from repro.streaming.codec import (
    decode_emits,
    decode_records,
    encode_emits,
    encode_records,
)
from repro.streaming.records import StreamRecord, heartbeat_record

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

texts = st.text(max_size=40)  # includes unicode and empty strings
opt_key = st.one_of(st.none(), texts)
opt_ts = st.one_of(
    st.none(), st.integers(min_value=-(1 << 62), max_value=1 << 62)
)

parsed_logs = st.builds(
    ParsedLog,
    raw=texts,
    pattern_id=st.integers(min_value=-100, max_value=1 << 40),
    fields=st.dictionaries(texts, texts, max_size=4),
    timestamp_millis=opt_ts,
    source=opt_key,
)

values = st.one_of(
    st.none(),
    texts,
    st.integers(),  # includes > 64-bit magnitudes -> pickle fallback
    st.floats(allow_nan=False),
    st.booleans(),  # bool is not int for the codec: pickle fallback
    parsed_logs,
    st.tuples(st.integers(), texts),
    st.lists(st.integers(), max_size=3),
)

records = st.builds(
    StreamRecord,
    value=values,
    key=opt_key,
    source=opt_key,
    timestamp_millis=opt_ts,
    is_heartbeat=st.booleans(),
)

buckets = st.lists(records, max_size=30)


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(buckets)
def test_records_roundtrip_exactly(bucket):
    assert list(decode_records(encode_records(bucket))) == bucket


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 30),
                          records), max_size=20))
def test_emits_roundtrip_exactly(emits):
    assert list(decode_emits(encode_emits(emits))) == emits


@settings(max_examples=100, deadline=None)
@given(buckets)
def test_decode_accepts_memoryview_and_is_independent_of_it(bucket):
    frame = bytearray(encode_records(bucket))
    view = memoryview(frame)
    decoded = decode_records(view)
    view.release()
    frame[:] = b"\x00" * len(frame)  # decoded columns must not alias
    assert list(decoded) == bucket


def test_homogeneous_columns_beat_pickle_on_size():
    bucket = [
        StreamRecord(value="line %d of the log" % i, key="k%d" % (i % 4),
                     source="agent-1", timestamp_millis=1_700_000_000_000 + i)
        for i in range(256)
    ]
    frame = encode_records(bucket)
    # ~1.6x smaller even though pickle memoizes the repeated key/source
    # strings; the win comes from dropping per-object class overhead.
    assert len(frame) < len(pickle.dumps(bucket, protocol=5)) / 1.3


def test_log_manager_buckets_use_the_str_value_column(monkeypatch):
    """A cycle's records carry the raw line, so the codec encodes their
    values as one string column, never through the pickle fallback."""
    from repro.service.agent import ReplayAgent
    from repro.service.bus import MessageBus
    from repro.service.log_manager import LogManager
    from repro.streaming import codec

    bus = MessageBus()
    bus.create_topic("logs.raw", partitions=2)
    manager = LogManager(bus)
    for source in ("app", "db", "web"):
        lines = ["2016/05/09 10:00:%02d %s line %d" % (i, source, i)
                 for i in range(5)]
        ReplayAgent(bus, "logs.raw", source, lines).drain()
    bus.produce("logs.raw", "a line produced without a key")
    bucket = manager.cycle()
    assert len(bucket) == 16

    def no_pickle(out, obj):
        raise AssertionError("value column fell back to pickle")

    monkeypatch.setattr(codec, "_put_pickled", no_pickle)
    frame = encode_records(bucket)
    assert list(decode_records(frame)) == bucket


def test_lazy_sequence_semantics():
    bucket = [StreamRecord(value=i, key=str(i)) for i in range(10)]
    decoded = decode_records(encode_records(bucket))
    assert len(decoded) == 10
    assert decoded[3] == bucket[3]
    assert decoded[-1] == bucket[-1]
    assert decoded[2:5] == bucket[2:5]
    with pytest.raises(IndexError):
        decoded[10]


def test_heartbeats_mix_into_data_buckets():
    bucket = [
        StreamRecord(value="a", key="k"),
        heartbeat_record("src", 12345),
        StreamRecord(value="b", key="k"),
    ]
    assert list(decode_records(encode_records(bucket))) == bucket


def test_empty_bucket():
    assert list(decode_records(encode_records([]))) == []
    assert list(decode_emits(encode_emits([]))) == []


class TestFrameValidation:
    def test_truncated_frame_rejected(self):
        with pytest.raises(ExecutionError):
            decode_records(b"LL")

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_records([]))
        frame[0] = 0
        with pytest.raises(ExecutionError):
            decode_records(bytes(frame))

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            decode_emits(encode_records([]))
        with pytest.raises(ExecutionError):
            decode_records(encode_emits([]))
