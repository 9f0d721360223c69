"""Unit tests for the in-memory message broker."""

import pytest

from repro.obs import MetricsRegistry
from repro.service.bus import MessageBus


class TestTopics:
    def test_create_and_list(self):
        bus = MessageBus()
        bus.create_topic("a")
        bus.create_topic("b", partitions=3)
        assert bus.topics() == ["a", "b"]

    def test_duplicate_create_raises(self):
        bus = MessageBus()
        bus.create_topic("a")
        with pytest.raises(ValueError):
            bus.create_topic("a")

    def test_ensure_topic_idempotent(self):
        bus = MessageBus()
        bus.ensure_topic("a", partitions=2)
        bus.ensure_topic("a", partitions=5)  # no error, no change
        bus.produce("a", 1, key="k")
        assert len(bus.end_offsets("a")) == 2

    def test_invalid_partition_count(self):
        bus = MessageBus()
        with pytest.raises(ValueError):
            bus.create_topic("a", partitions=0)

    def test_unknown_topic_raises(self):
        bus = MessageBus()
        with pytest.raises(KeyError):
            bus.produce("nope", 1)
        with pytest.raises(KeyError):
            bus.consumer("nope", "g")


class TestProduceConsume:
    def test_roundtrip(self):
        bus = MessageBus()
        bus.create_topic("t")
        bus.produce("t", {"x": 1})
        bus.produce("t", {"x": 2})
        consumer = bus.consumer("t", group="g")
        messages = consumer.poll()
        assert [m.value for m in messages] == [{"x": 1}, {"x": 2}]

    def test_offsets_advance(self):
        bus = MessageBus()
        bus.create_topic("t")
        consumer = bus.consumer("t", group="g")
        bus.produce("t", 1)
        assert [m.value for m in consumer.poll()] == [1]
        assert consumer.poll() == []
        bus.produce("t", 2)
        assert [m.value for m in consumer.poll()] == [2]

    def test_groups_are_independent(self):
        bus = MessageBus()
        bus.create_topic("t")
        bus.produce("t", 1)
        a = bus.consumer("t", group="a")
        b = bus.consumer("t", group="b")
        assert [m.value for m in a.poll()] == [1]
        assert [m.value for m in b.poll()] == [1]

    def test_same_group_shares_offsets(self):
        bus = MessageBus()
        bus.create_topic("t")
        bus.produce("t", 1)
        a = bus.consumer("t", group="g")
        b = bus.consumer("t", group="g")
        assert [m.value for m in a.poll()] == [1]
        assert b.poll() == []

    def test_keyed_records_stable_partition(self):
        bus = MessageBus()
        bus.create_topic("t", partitions=4)
        m1 = bus.produce("t", 1, key="event-1")
        m2 = bus.produce("t", 2, key="event-1")
        assert m1.partition == m2.partition

    def test_keyless_round_robin(self):
        bus = MessageBus()
        bus.create_topic("t", partitions=3)
        partitions = [bus.produce("t", i).partition for i in range(6)]
        assert partitions == [0, 1, 2, 0, 1, 2]

    def test_max_records(self):
        bus = MessageBus()
        bus.create_topic("t")
        bus.produce_many("t", list(range(10)))
        consumer = bus.consumer("t", group="g")
        assert len(consumer.poll(max_records=4)) == 4
        assert len(consumer.poll(max_records=100)) == 6

    def test_lag(self):
        bus = MessageBus()
        bus.create_topic("t", partitions=2)
        consumer = bus.consumer("t", group="g")
        for i in range(6):
            bus.produce("t", i, key="k%d" % i)
        assert consumer.lag() == 6
        consumer.poll()
        assert consumer.lag() == 0

    def test_lag_gauges_cover_partitions_past_the_budget(self):
        """A poll whose budget runs out in partition 0 still refreshes
        the lag gauge of every later partition."""
        metrics = MetricsRegistry()
        bus = MessageBus(metrics=metrics)
        bus.create_topic("t", partitions=4)
        for k in range(8):
            bus.produce_many("t", ["line"] * 10, key="k%d" % k)
        consumer = bus.consumer("t", group="g")
        taken = sum(len(values) for _, values in consumer.poll_slices(5))
        assert taken == 5
        gauges = {
            g["labels"]["partition"]: g["value"]
            for g in metrics.to_dict()["bus.consumer_lag"]
        }
        assert sorted(gauges) == ["0", "1", "2", "3"]
        assert sum(gauges.values()) == consumer.lag() == 75
        assert gauges == {
            str(p): end - done
            for p, (end, done) in enumerate(
                zip(bus.end_offsets("t"), bus.committed("t", "g"))
            )
        }

    def test_message_metadata(self):
        bus = MessageBus()
        bus.create_topic("t")
        m = bus.produce("t", "v", key="k")
        assert m.topic == "t"
        assert m.offset == 0
        assert m.key == "k"
