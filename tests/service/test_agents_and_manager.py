"""Unit tests for the replay agent, the log manager, and the archive
that each service step writes for the lines its manager cycle polled."""

from contextlib import contextmanager

import pytest

from repro.core.config import LogLensConfig
from repro.faults import FaultInjected, FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.parsing.timestamps import TimestampDetector
from repro.parsing.tokenizer import Tokenizer
from repro.service.agent import ReplayAgent
from repro.service.bus import MessageBus
from repro.service.config import ServiceConfig
from repro.service.log_manager import LogManager
from repro.service.loglens_service import LogLensService
from repro.streaming.retry import RetryPolicy

from tests.service.test_loglens_service import event_lines, training_lines


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
        assert (message.key, message.value) == ("app7", "x")

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


@contextmanager
def running_service(storage="memory", **config):
    service = LogLensService(config=ServiceConfig(storage=storage, **config))
    try:
        yield service
    finally:
        service.close()


@pytest.fixture(params=["memory", "sqlite"])
def storage_spec(request, tmp_path):
    if request.param == "memory":
        return "memory"
    return "sqlite:%s" % (tmp_path / "archive.db")


class TestLogManager:
    def test_cycle_archives_and_forwards(self):
        # The step that runs the manager's cycle archives its lines.
        with running_service() as service:
            ReplayAgent(service.bus, "logs.raw", "app1", ["l1", "l2"]).drain()
            assert service.step().ingested == 2
            assert service.log_storage.by_source("app1") == ["l1", "l2"]

        bus = make_bus()
        manager = LogManager(bus)
        ReplayAgent(bus, "logs.raw", "app1", ["l1", "l2"]).drain()
        records = manager.cycle()
        assert [(r.key, r.source) for r in records] == [
            ("app1", "app1"),
            ("app1", "app1"),
        ]
        # The bus payload itself is handed over, in arrival order.
        on_bus = [m.value for m in bus.consumer("logs.raw", "t").poll()]
        assert [r.value for r in records] == ["l1", "l2"]
        assert all(r.value is v for r, v in zip(records, on_bus))

    def test_rate_limit_defers_surplus(self):
        metrics = MetricsRegistry()
        bus = MessageBus(metrics=metrics)
        bus.create_topic("logs.raw")
        manager = LogManager(bus, max_rate_per_cycle=3)
        ReplayAgent(bus, "logs.raw", "s", ["x"] * 10).drain()
        assert len(manager.cycle()) == 3
        # The surplus stays on the bus; the lag gauges count it.
        assert sum(
            g["value"]
            for g in metrics.to_dict()["bus.consumer_lag"]
            if g["labels"]["group"] == "log-manager"
        ) == 7
        assert len(manager.cycle()) == 3

    def test_drain(self):
        with running_service() as service:
            service.log_manager.max_rate_per_cycle = 4
            ReplayAgent(service.bus, "logs.raw", "s", ["x"] * 10).drain()
            reports = service.run_until_drained()
            assert [r.ingested for r in reports] == [4, 4, 2, 0]
            assert service.log_storage.count("s") == 10

    def test_source_identification(self):
        bus = make_bus()
        manager = LogManager(bus)
        ReplayAgent(bus, "logs.raw", "a", ["1"]).drain()
        ReplayAgent(bus, "logs.raw", "b", ["2"]).drain()
        manager.cycle()
        assert manager.sources() == ["a", "b"]

    def test_missing_source_becomes_unknown(self):
        with running_service() as service:
            service.bus.produce("logs.raw", "x")
            service.step()
            assert service.log_storage.by_source("unknown") == ["x"]

        bus = make_bus()
        manager = LogManager(bus)
        bus.produce("logs.raw", "x")
        (record,) = manager.cycle()
        assert (record.key, record.source) == ("unknown", "unknown")
        assert record.value == "x"

    def test_keyed_forwarding_copartitions_by_source(self):
        bus = make_bus()
        manager = LogManager(bus)
        ReplayAgent(bus, "logs.raw", "same-source", ["a", "b", "c"]).drain()
        records = manager.cycle()
        assert {r.key for r in records} == {"same-source"}

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            LogManager(make_bus(), max_rate_per_cycle=0)

    def test_no_detector_stores_no_event_time(self):
        with running_service(
            tokenizer_factory=lambda: Tokenizer(timestamp_detector=None)
        ) as service:
            ReplayAgent(
                service.bus, "logs.raw", "s", ["2016/02/23 09:00:31 x"]
            ).drain()
            service.step()
            assert service.log_storage.count("s") == 1
            assert service.log_storage.time_range("s", 0, 2 ** 62) == []


class TestArchiveEventTime:
    """The archive stamps each line with the event time the parser found."""

    LINES = [
        "2016/02/23 09:00:31 default format",
        "23|02|2016 09:00:32 configured format",
    ]

    def test_configured_formats_reach_the_archive(self, storage_spec):
        cfg = LogLensConfig(extra_timestamp_formats=["dd|MM|yyyy HH:mm:ss"])
        with running_service(
            storage_spec, tokenizer_factory=cfg.make_tokenizer
        ) as service:
            service.ingest(self.LINES, source="s")
            service.step()
            assert service.log_storage.count("s") == 2
            assert service.log_storage.time_range(
                "s", 0, 2 ** 62
            ) == self.LINES

    def test_tokenizer_without_detector_stores_no_event_time(
        self, storage_spec
    ):
        with running_service(
            storage_spec,
            tokenizer_factory=lambda: Tokenizer(timestamp_detector=None),
        ) as service:
            service.ingest(self.LINES, source="s")
            service.step()
            assert service.log_storage.count("s") == 2
            assert service.log_storage.time_range("s", 0, 2 ** 62) == []

    def test_timestamp_past_the_third_token_is_archived(self, storage_spec):
        # The archive once looked for a timestamp in the first three
        # whitespace tokens only, so this line never reached time_range.
        line = "[app] pid=12 host=a 2016/02/23 09:00:31 started"
        millis = 1456218031000
        assert Tokenizer().tokenize(line).timestamp_millis == millis
        with running_service(storage_spec) as service:
            service.ingest([line], source="s")
            service.step()
            assert service.log_storage.time_range(
                "s", millis, millis
            ) == [line]

    def test_parsed_and_unparsed_lines_carry_the_parser_clock(
        self, storage_spec
    ):
        lines = event_lines("at-1", 7) + ["2016/05/09 10:07:30 ?? odd ??"]
        with running_service(storage_spec, num_partitions=2) as service:
            service.train(training_lines())
            service.ingest(lines, source="app")
            report = service.step()
            assert (report.parsed, report.stateless_anomalies) == (3, 1)
            tokenizer = Tokenizer()
            for line in lines:
                millis = tokenizer.tokenize(line).timestamp_millis
                assert line in service.log_storage.time_range(
                    "app", millis, millis
                )


class TestNoLineLost:
    """Every polled line is archived when its step ends, whatever the
    parse stage did with it; a line it produced no result for is
    archived without an event time."""

    STEPS = 6

    @pytest.mark.parametrize("outcome", ["quarantine", "raise"])
    def test_poisoned_lines_are_archived(self, storage_spec, outcome):
        plan = FaultPlan().poison(
            "operator:flat_map:*", lambda r: "POISON" in r.value
        )
        # The poison raises FaultInjected: retried and quarantined, or,
        # outside ``retryable``, failing the step.
        policy = RetryPolicy.no_wait(
            max_attempts=2,
            retryable=(Exception,) if outcome == "quarantine" else (),
            clock=ManualClock(),
        )
        ingested = []
        poisoned = []
        with running_service(
            storage_spec,
            num_partitions=2,
            retry_policy=policy,
            fault_plan=plan,
        ) as service:
            service.train(training_lines())
            for i in range(self.STEPS):
                lines = event_lines("nl-%d" % i, i)
                lines.append("completely unknown format %d !!" % i)
                if i % 2:
                    poison = "2016/05/09 10:%02d:02 POISON %d" % (i, i)
                    lines.insert(1, poison)
                    poisoned.append(poison)
                service.ingest(lines, source="app")
                ingested += lines
                if i % 2 and outcome == "raise":
                    with pytest.raises(FaultInjected):
                        service.step()
                else:
                    service.step()
                assert service.log_storage.count() == len(ingested)
                assert service.log_storage.by_source("app") == ingested
            timed = service.log_storage.time_range("app", 0, 2 ** 62)
            assert not set(poisoned) & set(timed)
            if outcome == "quarantine":
                assert service.quarantined_total() == len(poisoned)
                assert sorted(timed) == sorted(
                    line
                    for line in ingested
                    if line not in poisoned and "unknown format" not in line
                )

    def test_each_line_is_timestamp_detected_once(self):
        detector = TimestampDetector()
        calls = []
        lookup = detector.lookup

        # ``lookup`` is where a window is detected: the tokenizer calls
        # it once its own gate check passes, and ``identify`` ends in it.
        def counting(tokens, start):
            calls.append(tokens[start])
            return lookup(tokens, start)

        detector.lookup = counting
        lines = [
            "2016/02/23 09:%02d:%02d worker %s task" % (i // 60, i % 60, verb)
            for i in range(40)
            for verb in ("started", "finished")
        ] + ["2016/02/23 10:00:00 never seen before shape"]
        tokenizer = Tokenizer(timestamp_detector=detector)
        for line in lines:
            tokenizer.tokenize(line)
        # The premise: each of these lines costs the tokenizer one call.
        assert len(calls) == len(lines)
        del calls[:]
        with running_service(
            num_partitions=2,
            tokenizer_factory=lambda: Tokenizer(timestamp_detector=detector),
        ) as service:
            service.train(lines[:10])
            del calls[:]
            service.ingest(lines, source="app")
            reports = service.run_until_drained()
            assert sum(r.parsed for r in reports) == len(lines) - 1
            assert len(calls) == len(lines)
            assert service.log_storage.count() == len(lines)
            assert len(
                service.log_storage.time_range("app", 0, 2 ** 62)
            ) == len(lines)
