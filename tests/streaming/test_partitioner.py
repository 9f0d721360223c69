"""Unit tests for partitioning (heartbeat fan-out, key routing)."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.streaming.partitioner import partition_records
from repro.streaming.records import StreamRecord, heartbeat_record


def _bucket_of(record, buckets):
    [idx] = [i for i, b in enumerate(buckets) if any(r is record for r in b)]
    return idx


class TestHashPartitioner:
    def test_deterministic(self):
        r = StreamRecord(value=1, key="event-42")
        assert partition_records([r], 4) == partition_records([r], 4)

    def test_within_range(self):
        records = [StreamRecord(value=i, key="k%d" % i) for i in range(100)]
        buckets = partition_records(records, 4)
        assert len(buckets) == 4
        assert sum(len(b) for b in buckets) == 100

    def test_same_key_same_partition(self):
        a = StreamRecord(value=1, key="shared")
        b = StreamRecord(value=2, key="shared")
        buckets = partition_records([a, b], 8)
        assert _bucket_of(a, buckets) == _bucket_of(b, buckets)

    def test_keyless_goes_to_zero(self):
        records = [StreamRecord(value=i) for i in range(3)]
        assert partition_records(records, 4) == [records, [], [], []]

    def test_spread(self):
        records = [
            StreamRecord(value=i, key="key-%d" % i) for i in range(200)
        ]
        assert all(partition_records(records, 4))

    def test_invalid_partition_count(self):
        for num_partitions in (0, -1):
            with pytest.raises(ValueError):
                partition_records([], num_partitions)


class TestHeartbeatAware:
    def test_heartbeat_fans_out_to_all(self):
        hb = heartbeat_record("src", 1000)
        assert partition_records([hb], 4) == [[hb]] * 4

    def test_normal_record_routes_by_key(self):
        r = StreamRecord(value=1, key="k")
        assert sum(len(b) for b in partition_records([r], 4)) == 1


# Literal bucket indices: a checkpoint restore puts detector snapshots
# back by partition id, so no key may ever change partition.
GOLDEN_KEYS = ["event-42", "src-1/evt-7", "", "ſ", "job-7"]
GOLDEN_BUCKETS = {
    2: [1, 1, 0, 1, 0],
    3: [0, 1, 0, 0, 1],
    5: [0, 2, 0, 2, 2],
}


@pytest.mark.parametrize("num_partitions", sorted(GOLDEN_BUCKETS))
def test_routing_is_pinned_bit_for_bit(num_partitions):
    records = [StreamRecord(value=k, key=k) for k in GOLDEN_KEYS]
    keyless = StreamRecord(value="keyless")
    hb = heartbeat_record("src", 1000)
    buckets = partition_records(records + [keyless, hb], num_partitions)
    assert [_bucket_of(r, buckets) for r in records] == (
        GOLDEN_BUCKETS[num_partitions]
    )
    assert keyless in buckets[0]
    assert all(bucket[-1] is hb for bucket in buckets)


class TestPartitionRecords:
    def test_buckets_and_duplication(self):
        records = [
            StreamRecord(value=i, key="k%d" % i) for i in range(10)
        ] + [heartbeat_record("s", 5)]
        buckets = partition_records(records, 3)
        assert len(buckets) == 3
        # Ten keyed records land exactly once; the heartbeat thrice.
        assert sum(len(b) for b in buckets) == 13
        for bucket in buckets:
            assert any(r.is_heartbeat for r in bucket)

    def test_order_preserved_within_partition(self):
        records = [StreamRecord(value=i, key="k") for i in range(5)]
        buckets = partition_records(records, 1)
        assert [r.value for r in buckets[0]] == [0, 1, 2, 3, 4]


drawn_keys = st.one_of(
    st.none(), st.sampled_from(["a", "b", "job-7", ""]), st.text(max_size=6)
)
drawn_records = st.one_of(
    st.builds(
        lambda i, key: StreamRecord(value=i, key=key),
        st.integers(0, 99),
        drawn_keys,
    ),
    st.builds(
        lambda key, ts: StreamRecord(
            value=None, key=key, timestamp_millis=ts, is_heartbeat=True
        ),
        drawn_keys,
        st.integers(0, 10 ** 6),
    ),
)


def _route_by_key(record, num_partitions):
    """The key-hash rule: ``crc32(key) % n``, a keyless record at 0."""
    if record.key is None:
        return [0]
    return [zlib.crc32(record.key.encode("utf-8")) % num_partitions]


def _route_heartbeat_aware(record, num_partitions):
    """The paper's rule: a heartbeat to every partition, else by key."""
    if record.is_heartbeat:
        return list(range(num_partitions))
    return _route_by_key(record, num_partitions)


# One case per routing rule: the key-hash rule alone (heartbeat-free
# batches) and the paper's rule with heartbeat fan-out.
@pytest.mark.parametrize(
    "route, heartbeats",
    [
        pytest.param(_route_by_key, False, id="HashPartitioner"),
        pytest.param(
            _route_heartbeat_aware, True, id="HeartbeatAwarePartitioner"
        ),
    ],
)
@given(
    records=st.lists(drawn_records, max_size=40),
    num_partitions=st.integers(1, 5),
)
def test_partition_records_matches_per_record_partition(
    route, heartbeats, records, num_partitions
):
    """Splitting a batch routes every record exactly as the per-record
    rule sends it on its own, in batch order."""
    if not heartbeats:
        records = [r for r in records if not r.is_heartbeat]
    expected = [[] for _ in range(num_partitions)]
    for record in records:
        for idx in route(record, num_partitions):
            expected[idx].append(record)
    buckets = partition_records(records, num_partitions)
    assert [[id(r) for r in b] for b in buckets] == [
        [id(r) for r in b] for b in expected
    ]
