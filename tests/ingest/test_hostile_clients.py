"""Hostile clients against the full service: zero loss, zero duplication.

Every scenario drives the wired front door (``front_door`` over a
trained ``LogLensService``) and closes the accounting loop: each line a
client sent is either archived by the service or quarantined on the
``loglens.ingest`` dead-letter topic with its reason — none vanish, and
none are admitted twice.
"""

import socket
import threading
import time

from tests.service.test_loglens_service import event_lines, trained_service

from repro.faults import FaultPlan
from repro.ingest import (
    INGEST_STAGE,
    IngestClient,
    IngestLimits,
    IngestServerThread,
    front_door,
)


def front(request, service, **kwargs):
    thread = IngestServerThread(front_door(service, **kwargs)).start()
    request.addfinalizer(thread.stop)
    return thread


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def raw_connection(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    return sock, sock.makefile("rb")


def settle(service):
    service.run_until_drained()
    service.final_flush()


class TestMidLineDisconnect:
    def test_partial_tail_quarantined_whole_lines_archived(self, request):
        service = trained_service()
        thread = front(request, service)
        lines = event_lines("mid-1", 5)
        sock, reader = raw_connection(thread.tcp_port)
        sock.sendall(b"#source rude\n")
        payload = "".join("%s\n" % line for line in lines)
        sock.sendall(payload.encode() + b"2016/05/09 10:05:0")  # cut mid-line
        # No half-close handshake, just gone. The makefile reader holds
        # a dup of the fd, so it must go too or no FIN is ever sent.
        reader.close()
        sock.close()
        assert wait_until(
            lambda: thread.server.accepted_total == len(lines)
        )
        thread.stop()
        settle(service)

        archived = service.report(include_metrics=False).logs_archived
        assert archived == len(lines)
        (message,) = service.drain_dead_letters()
        envelope = message.value
        assert envelope["origin"] == INGEST_STAGE
        assert envelope["value"]["raw"] == "2016/05/09 10:05:0"
        assert envelope["value"]["source"] == "rude"
        assert envelope["metadata"]["reason"] == "unterminated"

    def test_unflushed_batch_on_abort_is_loss_free(self, request):
        """An aborted connection discards only never-acked lines —
        the client knows to resend them, so nothing is double-counted
        when it does."""
        service = trained_service()
        thread = front(
            request, service, limits=IngestLimits(batch_lines=1000)
        )
        lines = event_lines("mid-2", 6)
        sock, reader = raw_connection(thread.tcp_port)
        payload = "".join("%s\n" % line for line in lines)
        sock.sendall(payload.encode() + b"#flush\n")
        ack = reader.readline().decode().strip()
        assert ack == "+ok %d" % len(lines)
        # More lines arrive, then the peer dies before any flush: the
        # un-acked remainder was never produced.
        sock.sendall(b"never acked 1\nnever acked 2\n")
        time.sleep(0.05)
        sock.close()
        assert wait_until(
            lambda: thread.server.dropped_connections_total >= 0
        )
        thread.stop()
        settle(service)
        archived = service.report(include_metrics=False).logs_archived
        assert archived == len(lines)
        assert thread.server.accepted_total == len(lines)


class TestOversizedLines:
    def test_flood_line_quarantined_neighbours_survive(self, request):
        service = trained_service()
        thread = front(
            request, service, limits=IngestLimits(max_line_bytes=256)
        )
        good = event_lines("big-1", 7)
        giant = "A" * 100_000
        sock, reader = raw_connection(thread.tcp_port)
        sock.sendall(b"#source flood\n")
        body = "%s\n%s\n%s\n" % (good[0], giant, "\n".join(good[1:]))
        sock.sendall(body.encode() + b"#flush\n")
        ack = reader.readline().decode().strip()
        assert ack == "+ok %d" % len(good)
        sock.shutdown(socket.SHUT_WR)
        bye = [ln.decode().strip() for ln in reader][-1]
        assert bye == "+bye %d 0 1" % len(good)
        sock.close()
        thread.stop()
        settle(service)

        archived = service.report(include_metrics=False).logs_archived
        assert archived == len(good)
        (message,) = service.drain_dead_letters()
        envelope = message.value
        assert envelope["metadata"]["reason"] == "oversized"
        # Only a bounded head is quarantined, never the full flood.
        assert envelope["value"]["raw"] == giant[:512]


class TestSlowLoris:
    def test_byte_by_byte_sender_is_served_not_dropped(self, request):
        plan = FaultPlan().slow_first("ingest.read", 10, seconds=2.0)
        service = trained_service(fault_plan=plan)
        thread = front(request, service)
        lines = event_lines("slow-1", 9)
        sock, reader = raw_connection(thread.tcp_port)
        payload = ("".join("%s\n" % line for line in lines)).encode()
        step = max(1, len(payload) // 20)
        for offset in range(0, len(payload), step):  # dribble the bytes
            sock.sendall(payload[offset:offset + step])
            time.sleep(0.01)  # let each crumb arrive as its own read
        sock.sendall(b"#flush\n")
        ack = reader.readline().decode().strip()
        assert ack == "+ok %d" % len(lines)
        reader.close()
        sock.close()
        thread.stop()
        settle(service)

        # The modelled slowness ran on the plan's virtual clock; the
        # connection survived the many tiny reads and every record
        # landed. (TCP may still coalesce some crumbs, so the floor is
        # deliberately loose.)
        assert plan.call_count("ingest.read") >= 5
        assert thread.server.dropped_connections_total == 0
        archived = service.report(include_metrics=False).logs_archived
        assert archived == len(lines)


class TestBurstThenSilence:
    def test_unflushed_remainder_waits_then_lands_at_eof(self, request):
        service = trained_service()
        thread = front(
            request,
            service,
            limits=IngestLimits(batch_lines=8, queue_max_lines=8),
        )
        lines = event_lines("bs-%d" % 0, 0) * 7  # 21 lines: 2 caps + 5
        sock, reader = raw_connection(thread.tcp_port)
        sock.sendall(
            ("".join("%s\n" % line for line in lines)).encode()
        )
        # The queue cap forces two flushes; the remainder must NOT be
        # admitted while the client goes silent.
        assert wait_until(lambda: thread.server.accepted_total == 16)
        time.sleep(0.1)  # silence
        assert thread.server.accepted_total == 16
        sock.shutdown(socket.SHUT_WR)  # EOF flushes the remainder
        bye = [ln.decode().strip() for ln in reader][-1]
        assert bye == "+bye %d 0 0" % len(lines)
        sock.close()
        thread.stop()
        settle(service)
        archived = service.report(include_metrics=False).logs_archived
        assert archived == len(lines)
        assert service.drain_dead_letters() == []


class TestConcurrentClients:
    def test_32_concurrent_clients_zero_loss_zero_duplication(
        self, request
    ):
        """The acceptance bar: >= 32 concurrent senders, every record
        accounted for exactly once in the ServiceReport."""
        service = trained_service()
        thread = front(request, service)
        clients = 32
        payloads = {
            i: [
                line
                for event in range(4)
                for line in event_lines("cc%02d-%d" % (i, event), i % 50)
            ]
            for i in range(clients)
        }
        total = sum(len(p) for p in payloads.values())
        errors = []

        def send(index):
            try:
                with IngestClient(
                    "127.0.0.1",
                    thread.tcp_port,
                    "client-%02d" % index,
                    batch_lines=5,
                ) as client:
                    report = client.send(payloads[index])
                    assert report.accepted == len(payloads[index])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((index, exc))

        workers = [
            threading.Thread(target=send, args=(i,), daemon=True)
            for i in range(clients)
        ]
        for worker in workers:
            worker.start()
        # Drain concurrently, exactly as the serve driver does.
        while any(w.is_alive() for w in workers):
            service.step()
        for worker in workers:
            worker.join()
        thread.stop()
        settle(service)

        assert errors == []
        assert thread.server.accepted_total == total
        archived = service.report(include_metrics=False).logs_archived
        assert archived == total
        assert service.drain_dead_letters() == []
        # Per-source order survived the concurrency: each client's
        # archive matches what it sent, in order.
        for i in range(clients):
            archived = service.log_storage.by_source("client-%02d" % i)
            assert archived == payloads[i]
