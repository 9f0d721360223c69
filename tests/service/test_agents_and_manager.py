"""Unit tests for the replay agent and the log manager."""

import pytest

from repro.service.agent import ReplayAgent
from repro.service.bus import MessageBus
from repro.service.log_manager import LogManager
from repro.service.storage import LogStorage


def make_bus():
    bus = MessageBus()
    bus.create_topic("logs.raw")
    return bus


class TestReplayAgent:
    def test_step_ships_chunk(self):
        bus = make_bus()
        agent = ReplayAgent(
            bus, "logs.raw", "src", ["l%d" % i for i in range(10)],
            logs_per_step=4,
        )
        assert agent.step() == 4
        assert agent.step() == 4
        assert agent.step() == 2
        assert agent.exhausted
        assert agent.step() == 0
        assert agent.shipped == 10

    def test_records_carry_source(self):
        bus = make_bus()
        ReplayAgent(bus, "logs.raw", "app7", ["x"]).drain()
        consumer = bus.consumer("logs.raw", "t")
        [message] = consumer.poll()
        assert message.value == {"raw": "x", "source": "app7"}

    def test_drain(self):
        bus = make_bus()
        agent = ReplayAgent(
            bus, "logs.raw", "s", ["a"] * 25, logs_per_step=10
        )
        assert agent.drain() == 25
        assert agent.exhausted

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ReplayAgent(make_bus(), "logs.raw", "s", [], logs_per_step=0)

    def test_iterator_source(self):
        bus = make_bus()
        agent = ReplayAgent(bus, "logs.raw", "s", iter(["a", "b"]))
        assert agent.drain() == 2


class TestLogManager:
    def test_cycle_archives_and_forwards(self):
        bus = make_bus()
        storage = LogStorage()
        manager = LogManager(bus, storage)
        ReplayAgent(bus, "logs.raw", "app1", ["l1", "l2"]).drain()
        records = manager.cycle()
        assert storage.by_source("app1") == ["l1", "l2"]
        assert [(r.key, r.source) for r in records] == [
            ("app1", "app1"),
            ("app1", "app1"),
        ]
        # The bus payload itself is handed over, in arrival order.
        on_bus = [m.value for m in bus.consumer("logs.raw", "t").poll()]
        assert [r.value for r in records] == [
            {"raw": "l1", "source": "app1"},
            {"raw": "l2", "source": "app1"},
        ]
        assert all(r.value is v for r, v in zip(records, on_bus))

    def test_rate_limit_defers_surplus(self):
        bus = make_bus()
        manager = LogManager(
            bus, LogStorage(), max_rate_per_cycle=3
        )
        ReplayAgent(bus, "logs.raw", "s", ["x"] * 10).drain()
        assert len(manager.cycle()) == 3
        assert manager.stats.deferred == 7
        assert len(manager.cycle()) == 3

    def test_drain(self):
        bus = make_bus()
        manager = LogManager(bus, LogStorage(), max_rate_per_cycle=4)
        ReplayAgent(bus, "logs.raw", "s", ["x"] * 10).drain()
        assert manager.drain() == 10
        assert manager.stats.forwarded == 10

    def test_source_identification(self):
        bus = make_bus()
        manager = LogManager(bus, LogStorage())
        ReplayAgent(bus, "logs.raw", "a", ["1"]).drain()
        ReplayAgent(bus, "logs.raw", "b", ["2"]).drain()
        manager.drain()
        assert manager.sources() == ["a", "b"]

    def test_missing_source_becomes_unknown(self):
        bus = make_bus()
        storage = LogStorage()
        manager = LogManager(bus, storage)
        bus.produce("logs.raw", {"raw": "x", "source": None})
        (record,) = manager.cycle()
        assert storage.by_source("unknown") == ["x"]
        assert (record.key, record.source) == ("unknown", "unknown")
        assert record.value == {"raw": "x", "source": None}

    def test_keyed_forwarding_copartitions_by_source(self):
        bus = make_bus()
        manager = LogManager(bus, LogStorage())
        ReplayAgent(bus, "logs.raw", "same-source", ["a", "b", "c"]).drain()
        records = manager.cycle()
        assert {r.key for r in records} == {"same-source"}

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            LogManager(make_bus(), LogStorage(), max_rate_per_cycle=0)

    def test_no_detector_stores_no_event_time(self):
        bus = make_bus()
        storage = LogStorage()
        manager = LogManager(bus, storage)
        manager.timestamp_detector = None
        ReplayAgent(bus, "logs.raw", "s", ["2016/02/23 09:00:31 x"]).drain()
        manager.cycle()
        assert storage.count("s") == 1
        assert storage.time_range("s", 0, 2 ** 62) == []


@pytest.fixture(params=["memory", "sqlite"])
def storage_spec(request, tmp_path):
    if request.param == "memory":
        return "memory"
    return "sqlite:%s" % (tmp_path / "archive.db")


class TestArchiveEventTime:
    """The archive stamps event time with the parser's formats."""

    LINES = [
        "2016/02/23 09:00:31 default format",
        "23|02|2016 09:00:32 configured format",
    ]

    def _service(self, spec, tokenizer_factory):
        from repro.service.config import ServiceConfig
        from repro.service.loglens_service import LogLensService

        return LogLensService(config=ServiceConfig(
            storage=spec, tokenizer_factory=tokenizer_factory
        ))

    def test_configured_formats_reach_the_archive(self, storage_spec):
        from repro.core.config import LogLensConfig

        cfg = LogLensConfig(extra_timestamp_formats=["dd|MM|yyyy HH:mm:ss"])
        service = self._service(storage_spec, cfg.make_tokenizer)
        try:
            service.ingest(self.LINES, source="s")
            service.log_manager.drain()
            assert service.log_storage.count("s") == 2
            assert service.log_storage.time_range(
                "s", 0, 2 ** 62
            ) == self.LINES
        finally:
            service.close()

    def test_tokenizer_without_detector_stores_no_event_time(
        self, storage_spec
    ):
        from repro.parsing.tokenizer import Tokenizer

        service = self._service(
            storage_spec, lambda: Tokenizer(timestamp_detector=None)
        )
        try:
            service.ingest(self.LINES, source="s")
            service.log_manager.drain()
            assert service.log_storage.count("s") == 2
            assert service.log_storage.time_range("s", 0, 2 ** 62) == []
        finally:
            service.close()
