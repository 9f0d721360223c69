"""Batched bus hot path: same semantics, one lock acquisition per batch."""

from repro.obs import MetricsRegistry
from repro.service.bus import MessageBus


class _CountingLock:
    """Reentrant lock stand-in counting outermost acquisitions."""

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


def fresh_bus(partitions=3):
    bus = MessageBus(metrics=MetricsRegistry())
    bus.ensure_topic("t", partitions=partitions)
    return bus


class TestBatchedProduce:
    def test_produce_many_matches_sequential_produce(self):
        """Batch and per-record produce land records identically."""
        batched = fresh_bus()
        sequential = fresh_bus()
        values = ["v%d" % i for i in range(10)]
        out = batched.produce_many("t", values, key="k")
        for v in values:
            sequential.produce("t", v, key="k")
        assert [
            (m.partition, m.offset, m.key, m.value) for m in out
        ] == [
            (m.partition, m.offset, m.key, m.value)
            for p in sequential._topics["t"].partitions
            for m in p
        ]

    def test_keyless_round_robin_spans_batches(self):
        """The round-robin cursor is shared by batch and single produce."""
        bus = fresh_bus(partitions=3)
        first = bus.produce_many("t", ["a", "b"])
        single = bus.produce("t", "c")
        second = bus.produce_many("t", ["d"])
        assert [m.partition for m in first + [single] + second] == [
            0, 1, 2, 0,
        ]

    def test_produce_many_takes_the_lock_once(self):
        bus = fresh_bus()
        counter = _CountingLock()
        bus._lock = counter
        bus.produce_many("t", ["v%d" % i for i in range(50)], key="k")
        assert counter.acquisitions == 1

    def test_produced_counter_counts_batch(self):
        metrics = MetricsRegistry()
        bus = MessageBus(metrics=metrics)
        bus.ensure_topic("t")
        bus.produce_many("t", list("abc"))
        bus.produce("t", "d")
        assert metrics.counter("bus.produced", topic="t").value == 4


class TestBatchedPoll:
    def test_poll_takes_the_lock_once(self):
        bus = fresh_bus()
        bus.produce_many("t", ["v%d" % i for i in range(50)])
        consumer = bus.consumer("t", group="g")
        counter = _CountingLock()
        bus._lock = counter
        got = consumer.poll()
        assert len(got) == 50
        assert counter.acquisitions == 1

    def test_drain_dead_letters_single_acquisition(self):
        bus = fresh_bus()
        for i in range(5):
            bus.produce_failed("stage", "v%d" % i, "boom", key="k")
        counter = _CountingLock()
        bus._lock = counter
        drained = bus.drain_dead_letters()
        assert len(drained) == 5
        assert counter.acquisitions == 1
