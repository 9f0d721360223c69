"""Unit tests for the file-tail agent and storage replay."""

from repro.service.agent import FileTailAgent
from repro.service.bus import MessageBus


def make_bus():
    bus = MessageBus()
    bus.create_topic("logs.raw")
    return bus


class TestFileTailAgent:
    def test_ships_existing_content(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text("l1\nl2\n")
        bus = make_bus()
        agent = FileTailAgent(bus, "logs.raw", "app", path)
        assert agent.poll() == 2
        consumer = bus.consumer("logs.raw", "t")
        assert [m.value for m in consumer.poll()] == ["l1", "l2"]

    def test_only_new_lines_on_next_poll(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text("l1\n")
        bus = make_bus()
        agent = FileTailAgent(bus, "logs.raw", "app", path)
        agent.poll()
        assert agent.poll() == 0
        with path.open("a") as handle:
            handle.write("l2\nl3\n")
        assert agent.poll() == 2
        assert agent.shipped == 3

    def test_partial_line_waits_for_newline(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text("complete\npart")
        bus = make_bus()
        agent = FileTailAgent(bus, "logs.raw", "app", path)
        assert agent.poll() == 1
        with path.open("a") as handle:
            handle.write("ial\n")
        assert agent.poll() == 1
        consumer = bus.consumer("logs.raw", "t")
        raws = [m.value for m in consumer.poll()]
        assert raws == ["complete", "partial"]

    def test_missing_file_polls_empty(self, tmp_path):
        agent = FileTailAgent(
            make_bus(), "logs.raw", "app", tmp_path / "absent.log"
        )
        assert agent.poll() == 0

    def test_rotation_restarts_from_zero(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text("old1\nold2\nold3\n")
        bus = make_bus()
        agent = FileTailAgent(bus, "logs.raw", "app", path)
        agent.poll()
        path.write_text("new\n")  # truncation
        assert agent.poll() == 1

    def test_tail_mode_skips_existing(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text("old\n")
        bus = make_bus()
        agent = FileTailAgent(
            bus, "logs.raw", "app", path, from_beginning=False
        )
        assert agent.poll() == 0
        with path.open("a") as handle:
            handle.write("new\n")
        assert agent.poll() == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "app.log"
        path.write_text("a\n\n   \nb\n")
        agent = FileTailAgent(make_bus(), "logs.raw", "app", path)
        assert agent.poll() == 2


class TestReplayFromStorage:
    def test_replay_reprocesses_archived_logs(self):
        from tests.service.test_loglens_service import (
            event_lines,
            trained_service,
        )

        service = trained_service()
        service.ingest(event_lines("fl-r", 20), source="app")
        service.run_until_drained()
        archived = service.log_storage.count("app")
        assert archived == 3
        replayed = service.replay_from_storage("app")
        assert replayed == 3
        service.run_until_drained()
        service.final_flush()
        # The replayed copy is archived under its own source and the
        # replayed (normal) event produces no anomalies.
        assert service.log_storage.count("app.replay") == 3
        assert service.anomaly_storage.count() == 0
