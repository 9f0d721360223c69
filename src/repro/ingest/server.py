"""Asyncio network front door: TCP line protocol + minimal HTTP POST.

The paper's LogLens is a *service*: agents on remote hosts ship logs to
an ingestion tier that feeds the processing plane (Section II-B; the
FlowLens ingestion-service architecture separates a socket-facing
receiver from processing the same way).  This module is that tier for
the reproduction — stdlib-only, one event loop, two listeners:

* **TCP** (:data:`TCP framing <IngestServer>`): line-delimited UTF-8.
  Control lines start with ``#`` (``#source <name>`` binds the
  connection's source, ``#flush`` flushes the buffered batch and
  requests an ack).  The server flushes **only** on ``#flush``, at EOF,
  or — for senders that never flush — once the buffer hits the
  ``queue_max_lines`` memory cap.  Every solicited flush is
  acknowledged: ``+ok <n>`` once the batch is on the bus, ``-retry
  <n>`` when an injected/transient failure discarded it *before*
  produce, ``-overload <n>`` when the shed policy refused it.  A forced
  ``queue_max_lines`` flush is silent on success; its accepted count is
  carried into the next solicited ack so client-side accounting always
  matches server admission (refusals are still written, so a
  fire-and-forget sender sees them).  On EOF the server flushes what
  remains and answers ``+bye <accepted> <shed> <rejected>``.  Because
  nothing is admitted ahead of a client's ``#flush`` (as long as its
  batches stay within ``queue_max_lines``), a client that resends
  un-acked batches gets at-least-once delivery with **no duplication
  under the failure modes the chaos harness injects** (pre-produce
  faults).
* **HTTP** (one-shot clients, health checks): ``POST /ingest`` with a
  newline-delimited body; ``?source=`` or ``X-LogLens-Source`` names
  the source; 200 carries ``{"accepted": n, "rejected": m}``, 503 means
  nothing was admitted and the body is safe to retry verbatim (shed at
  the hard limit, or a transient admission failure), 413 refuses bodies
  over ``batch_lines * max_line_bytes`` bytes before reading them.
  ``GET /healthz`` reports counters.

**Backpressure** (:class:`~repro.ingest.limits.IngestLimits`): when the
bus backlog passes ``soft_pending_limit`` the server *stops reading* for
``backpressure_delay_seconds`` — TCP flow control then pushes back on
the sender; nothing is dropped.  Past ``hard_pending_limit`` the shed
policy refuses whole batches (``-overload`` / 503): the documented
contract is that shedding is all-or-nothing per batch, so clients retry
verbatim without duplication.

**Fault sites** (chaos testing through the socket path):

* ``ingest.accept`` — fires per accepted TCP connection; a raise drops
  it before any byte is read (clients reconnect and retry).
* ``ingest.read`` — fires per TCP read; slow rules advance the plan's
  virtual clock (a modelled slow-loris client), raise rules abort the
  connection mid-stream (the un-flushed batch is discarded, nothing was
  produced, the client resends).
* ``ingest.batch`` — wraps the sink call; a raise discards the batch
  pre-produce and acks ``-retry``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..faults import FaultPlan
from ..obs import MetricsRegistry, get_registry
from .limits import IngestLimits

__all__ = [
    "INGEST_STAGE",
    "IngestServer",
    "IngestServerThread",
    "front_door",
    "service_pending",
]

#: Dead-letter origin name for records rejected at the front door.
INGEST_STAGE = "loglens.ingest"

#: Longest head of an oversized line kept for the dead-letter envelope.
_REJECT_HEAD_BYTES = 512


class _LineAssembler:
    """Incremental newline framing with an oversized-line escape hatch.

    Feed raw chunks; get back ``("line", text)`` and
    ``("oversized", truncated_head)`` events.  An oversized line is
    consumed up to its newline in *discard mode* so one hostile line
    cannot poison the framing of everything after it.  A partial
    trailing line (mid-line disconnect) stays in the buffer and is
    reported by :meth:`partial` — never silently shipped.
    """

    def __init__(self, max_line_bytes: int) -> None:
        self.max_line_bytes = max_line_bytes
        self._buffer = bytearray()
        self._discarding = False
        self._discard_head = b""

    def feed(self, chunk: bytes) -> List[Tuple[str, str]]:
        self._buffer.extend(chunk)
        events: List[Tuple[str, str]] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if self._discarding:
                    # Keep only the head; drop the rest of the flood.
                    self._buffer.clear()
                elif len(self._buffer) > self.max_line_bytes:
                    self._discarding = True
                    self._discard_head = bytes(
                        self._buffer[:_REJECT_HEAD_BYTES]
                    )
                    self._buffer.clear()
                return events
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if self._discarding:
                self._discarding = False
                events.append(
                    ("oversized", self._decode(self._discard_head))
                )
                self._discard_head = b""
                continue
            if line.endswith(b"\r"):
                line = line[:-1]
            if len(line) > self.max_line_bytes:
                events.append(
                    ("oversized", self._decode(line[:_REJECT_HEAD_BYTES]))
                )
                continue
            events.append(("line", self._decode(line)))

    def partial(self) -> Optional[str]:
        """The unterminated trailing line, if any (for accounting)."""
        if self._discarding:
            return self._decode(self._discard_head)
        if self._buffer:
            return self._decode(bytes(self._buffer[:_REJECT_HEAD_BYTES]))
        return None

    @staticmethod
    def _decode(raw: bytes) -> str:
        return raw.decode("utf-8", "replace")


class _Connection:
    """Per-TCP-connection state: source binding, batch, counters."""

    __slots__ = (
        "peer",
        "source",
        "batch",
        "accepted",
        "unacked_accepted",
        "shed",
        "rejected",
    )

    def __init__(self, peer: str, source: str) -> None:
        self.peer = peer
        self.source = source
        self.batch: List[str] = []
        self.accepted = 0
        # Admitted by a forced (queue_max_lines) flush but not yet
        # reported in a solicited ack — carried into the next one so
        # client accounting matches server admission.
        self.unacked_accepted = 0
        self.shed = 0
        self.rejected = 0


class IngestServer:
    """The asyncio front door (see module docstring for the protocol).

    Parameters
    ----------
    sink:
        ``sink(lines, source) -> accepted_count`` — the hand-off into
        the processing plane (``LogLensService.ingest`` via
        :func:`front_door`, or a bare bus produce in benchmarks).  Must
        be thread-safe against the driver loop; the bus produce path is.
    host / tcp_port / http_port:
        Bind addresses; port 0 asks the OS for a free port (read the
        bound ports from :attr:`tcp_port` / :attr:`http_port` after
        :meth:`start`).  ``http_port=None`` disables the HTTP listener.
    limits:
        Framing and backpressure knobs
        (:class:`~repro.ingest.limits.IngestLimits`).
    pending:
        ``pending() -> int`` backlog probe driving backpressure and
        shed; ``None`` disables both.
    reject_sink:
        ``reject_sink(head, source, reason)`` called for every rejected
        line (oversized, bad control frame) so nothing disappears
        without accounting — :func:`front_door` wires it to the
        ``loglens.ingest`` dead-letter topic.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` with the three
        ``ingest.*`` sites armed.
    metrics:
        Registry for the ``ingest.*`` counter/histogram families.
    check_pending_every:
        Probe ``pending()`` every N TCP reads (1 = every read; the
        default amortises the bus-lock probe on the hot path).
    sleeper:
        Async ``sleeper(seconds)`` used for backpressure pauses;
        injectable so tests count pauses without wall-clock waiting.
    """

    def __init__(
        self,
        sink: Callable[[List[str], str], int],
        *,
        host: str = "127.0.0.1",
        tcp_port: int = 0,
        http_port: Optional[int] = 0,
        limits: Optional[IngestLimits] = None,
        pending: Optional[Callable[[], int]] = None,
        reject_sink: Optional[Callable[[str, str, str], None]] = None,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        default_source: str = "tcp",
        check_pending_every: int = 16,
        sleeper: Optional[Callable[[float], Awaitable[None]]] = None,
    ) -> None:
        if check_pending_every < 1:
            raise ValueError("check_pending_every must be >= 1")
        self.sink = sink
        self.host = host
        self.limits = limits if limits is not None else IngestLimits()
        self.pending = pending
        self.reject_sink = reject_sink
        self.fault_plan = fault_plan
        self.metrics = metrics if metrics is not None else get_registry()
        self.default_source = default_source
        self.check_pending_every = check_pending_every
        self._sleeper = sleeper if sleeper is not None else asyncio.sleep
        self._requested_tcp_port = tcp_port
        self._requested_http_port = http_port
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._handler_tasks: set = set()

        # Lifetime totals (mutated on the event loop thread only; read
        # cross-thread by tests and the serve driver — plain ints are
        # safe to read torn-free under the GIL).
        self.accepted_total = 0
        self.rejected_total = 0
        self.shed_total = 0
        self.batches_total = 0
        self.retried_batches_total = 0
        self.connections_total = 0
        self.dropped_connections_total = 0
        self.backpressure_waits_total = 0
        self.http_requests_total = 0

        self._c_connections = self.metrics.counter(
            "ingest.connections", transport="tcp"
        )
        self._c_http_connections = self.metrics.counter(
            "ingest.connections", transport="http"
        )
        self._c_dropped = self.metrics.counter(
            "ingest.connections_dropped"
        )
        self._c_accepted = self.metrics.counter("ingest.accepted")
        self._c_rejected = self.metrics.counter("ingest.rejected")
        self._c_shed = self.metrics.counter("ingest.shed")
        self._c_backpressure = self.metrics.counter(
            "ingest.backpressure_waits"
        )
        self._c_retried = self.metrics.counter("ingest.batch_retries")
        self._h_batch_latency = self.metrics.histogram(
            "ingest.batch_ingest_seconds"
        )
        self._c_http_status: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind both listeners; idempotent ports readable afterwards."""
        self._tcp_server = await asyncio.start_server(
            self._handle_tcp, self.host, self._requested_tcp_port
        )
        if self._requested_http_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, self.host, self._requested_http_port
            )

    async def stop(self) -> None:
        """Close listeners, cancel in-flight handlers, wait for close.

        Handlers are cancelled *before* ``wait_closed()`` — on Python
        >= 3.12.1 ``wait_closed()`` waits for every connection handler,
        so awaiting it with a client still connected would block
        forever.
        """
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        tasks = [t for t in self._handler_tasks if not t.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                await server.wait_closed()
        self._tcp_server = None
        self._http_server = None

    @property
    def tcp_port(self) -> int:
        assert self._tcp_server is not None, "server not started"
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> Optional[int]:
        if self._http_server is None:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _track_handler(self) -> None:
        """Register the current connection handler task for shutdown."""
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)

    def _invoke_fault(self, site: str, subject: Any) -> None:
        if self.fault_plan is not None:
            self.fault_plan.invoke(site, lambda: None, subject=subject)

    def _pending_now(self) -> int:
        return self.pending() if self.pending is not None else 0

    def _reject(self, head: str, source: str, reason: str) -> None:
        self.rejected_total += 1
        self._c_rejected.inc()
        if self.reject_sink is not None:
            self.reject_sink(head, source, reason)

    def _http_status_counter(self, status: int):
        counter = self._c_http_status.get(status)
        if counter is None:
            counter = self.metrics.counter(
                "ingest.http_requests", status=str(status)
            )
            self._c_http_status[status] = counter
        return counter

    def _flush(
        self, conn: _Connection, *, solicited: bool = True
    ) -> Optional[str]:
        """Flush one connection's batch; returns the ack line to write.

        The batch either lands on the bus in full (``+ok``) or is
        discarded before produce (``-retry`` / ``-overload``); there is
        no partial admission, which is what makes client-side resend
        duplication-free.

        An unsolicited flush (the forced ``queue_max_lines`` cap) is
        silent on success — returns ``None`` and carries its accepted
        count in ``conn.unacked_accepted`` until the next solicited ack
        — but still returns refusal lines, so a fire-and-forget sender
        sees shedding instead of mistaking it for acceptance.
        """
        count = len(conn.batch)
        if count == 0:
            if not solicited:
                return None
            carried, conn.unacked_accepted = conn.unacked_accepted, 0
            return "+ok %d" % carried
        if (
            self.pending is not None
            and self._pending_now() >= self.limits.hard_pending_limit
        ):
            conn.shed += count
            self.shed_total += count
            self._c_shed.inc(count)
            conn.batch.clear()
            return "-overload %d" % count
        started = time.perf_counter()
        try:
            self._invoke_fault("ingest.batch", conn)
            accepted = self.sink(conn.batch, conn.source)
        except Exception:
            self.retried_batches_total += 1
            self._c_retried.inc()
            conn.batch.clear()
            return "-retry %d" % count
        self._h_batch_latency.observe(time.perf_counter() - started)
        conn.batch.clear()
        conn.accepted += accepted
        self.accepted_total += accepted
        self.batches_total += 1
        self._c_accepted.inc(accepted)
        if not solicited:
            conn.unacked_accepted += accepted
            return None
        carried, conn.unacked_accepted = conn.unacked_accepted, 0
        return "+ok %d" % (accepted + carried)

    # ------------------------------------------------------------------
    # TCP protocol
    # ------------------------------------------------------------------
    async def _handle_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._track_handler()
        peername = writer.get_extra_info("peername")
        peer = (
            "%s:%s" % (peername[0], peername[1])
            if peername
            else "unknown"
        )
        self.connections_total += 1
        self._c_connections.inc()
        try:
            self._invoke_fault("ingest.accept", peer)
        except Exception:
            self.dropped_connections_total += 1
            self._c_dropped.inc()
            writer.close()
            return
        conn = _Connection(peer, "%s:%s" % (self.default_source, peer))
        assembler = _LineAssembler(self.limits.max_line_bytes)
        reads = 0
        try:
            while True:
                if (
                    self.pending is not None
                    and reads % self.check_pending_every == 0
                    and self._pending_now()
                    >= self.limits.soft_pending_limit
                ):
                    self.backpressure_waits_total += 1
                    self._c_backpressure.inc()
                    await self._sleeper(
                        self.limits.backpressure_delay_seconds
                    )
                reads += 1
                self._invoke_fault("ingest.read", peer)
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for kind, payload in assembler.feed(chunk):
                    if kind == "oversized":
                        conn.rejected += 1
                        self._reject(payload, conn.source, "oversized")
                        continue
                    if payload.startswith("#"):
                        ack = self._control(conn, payload)
                        if ack is not None:
                            writer.write(ack.encode() + b"\n")
                            await writer.drain()
                        continue
                    if not payload.strip():
                        continue
                    conn.batch.append(payload)
                    if len(conn.batch) >= self.limits.queue_max_lines:
                        # Hard per-connection memory cap: flush without
                        # being asked.  Never triggered by an acked
                        # client whose batches fit the cap — that is
                        # what keeps its resend logic duplication-free.
                        ack = self._flush(conn, solicited=False)
                        if ack is not None:
                            writer.write(ack.encode() + b"\n")
                            await writer.drain()
            # EOF: flush the remainder, then the final accounting line.
            partial = assembler.partial()
            if partial is not None:
                conn.rejected += 1
                self._reject(partial, conn.source, "unterminated")
            ack = self._flush(conn)
            if ack != "+ok 0":
                writer.write(ack.encode() + b"\n")
            writer.write(
                b"+bye %d %d %d\n"
                % (conn.accepted, conn.shed, conn.rejected)
            )
            await writer.drain()
        except Exception:
            # Injected read fault or a genuinely broken pipe: the
            # un-flushed batch was never produced, so dropping it is
            # loss-free — the client never saw an ack and resends.
            self.dropped_connections_total += 1
            self._c_dropped.inc()
        finally:
            writer.close()

    def _control(self, conn: _Connection, line: str) -> Optional[str]:
        """Handle one ``#`` control frame; returns the ack to send."""
        parts = line.split(None, 1)
        command = parts[0]
        if command == "#source":
            if len(parts) != 2 or not parts[1].strip():
                conn.rejected += 1
                self._reject(line, conn.source, "bad-source")
                return "-err source"
            conn.source = parts[1].strip()
            return None
        if command == "#flush":
            return self._flush(conn)
        conn.rejected += 1
        self._reject(line, conn.source, "unknown-control")
        return "-err unknown-control"

    # ------------------------------------------------------------------
    # HTTP protocol (deliberately minimal: HTTP/1.1, one request per
    # connection, Content-Length bodies only)
    # ------------------------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._track_handler()
        self.http_requests_total += 1
        self._c_http_connections.inc()
        try:
            status, body = await self._http_request(reader)
        except Exception:
            status, body = 400, {"error": "bad-request"}
        self._http_status_counter(status).inc()
        payload = json.dumps(body, sort_keys=True).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  503: "Service Unavailable"}.get(status, "Error")
        try:
            writer.write(
                b"HTTP/1.1 %d %s\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n"
                b"Connection: close\r\n\r\n"
                % (status, reason.encode(), len(payload))
            )
            writer.write(payload)
            await writer.drain()
        except Exception:
            pass
        finally:
            writer.close()

    async def _http_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return 400, {"error": "empty-request"}
        try:
            method, target, _version = request_line.split(None, 2)
        except ValueError:
            return 400, {"error": "malformed-request-line"}
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        split = urlsplit(target)
        if method == "GET" and split.path == "/healthz":
            return 200, {
                "status": "ok",
                "accepted_total": self.accepted_total,
                "rejected_total": self.rejected_total,
                "shed_total": self.shed_total,
                "pending": self._pending_now(),
            }
        if split.path != "/ingest":
            return 404, {"error": "not-found"}
        if method != "POST":
            return 405, {"error": "method-not-allowed"}
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return 400, {"error": "bad-content-length"}
        if length < 0:
            return 400, {"error": "bad-content-length"}
        # Bound the body before reading it: the TCP path caps per-line
        # and per-connection memory, so a claimed Content-Length must
        # not be able to buffer unbounded bytes either.
        max_body_bytes = (
            self.limits.batch_lines * self.limits.max_line_bytes
        )
        if length > max_body_bytes:
            return 413, {
                "error": "body-too-large",
                "limit_bytes": max_body_bytes,
            }
        body = await reader.readexactly(length) if length else b""
        query = parse_qs(split.query)
        source = (
            query.get("source", [None])[0]
            or headers.get("x-loglens-source")
            or "http"
        )
        lines: List[str] = []
        rejected = 0
        for raw_line in body.decode("utf-8", "replace").splitlines():
            if not raw_line.strip():
                continue
            if len(raw_line.encode("utf-8")) > self.limits.max_line_bytes:
                rejected += 1
                self._reject(
                    raw_line[:_REJECT_HEAD_BYTES], source, "oversized"
                )
                continue
            lines.append(raw_line)
        if (
            lines
            and self.pending is not None
            and self._pending_now() >= self.limits.hard_pending_limit
        ):
            self.shed_total += len(lines)
            self._c_shed.inc(len(lines))
            return 503, {"error": "overload", "shed": len(lines)}
        accepted = 0
        if lines:
            started = time.perf_counter()
            try:
                self._invoke_fault("ingest.batch", source)
                accepted = self.sink(lines, source)
            except Exception:
                # Server-side failure, not a client error: nothing was
                # admitted, so tell the client to retry verbatim —
                # mirrors the TCP ``-retry`` semantics.
                self.retried_batches_total += 1
                self._c_retried.inc()
                return 503, {"error": "retry", "rejected": rejected}
            self._h_batch_latency.observe(time.perf_counter() - started)
            self.accepted_total += accepted
            self.batches_total += 1
            self._c_accepted.inc(accepted)
        return 200, {"accepted": accepted, "rejected": rejected}


class IngestServerThread:
    """Run an :class:`IngestServer` on a dedicated event-loop thread.

    The sync harness benchmarks, tests, and the chaos CLI use: start it,
    read the bound ports, drive sync clients from any thread, stop it.
    The sink runs on the loop thread — the bus produce path is
    thread-safe against a driver calling ``service.step()`` elsewhere.
    """

    def __init__(self, server: IngestServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def start(self, timeout: float = 10.0) -> "IngestServerThread":
        self._thread = threading.Thread(
            target=self._run, name="loglens-ingest", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("ingest server failed to start in time")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        loop.run_until_complete(self.server.start())
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # stop() cancels the connection handlers itself; the sweep
            # below catches any stray task so no transport outlives the
            # loop.
            loop.run_until_complete(self.server.stop())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout)
        self._loop = None
        self._thread = None

    @property
    def tcp_port(self) -> int:
        return self.server.tcp_port

    @property
    def http_port(self) -> Optional[int]:
        return self.server.http_port


def service_pending(service: Any) -> int:
    """Un-processed ingest backlog of a wired service (bus lag).

    Records produced onto ``logs.raw`` but not yet consumed by the log
    manager — the quantity the backpressure policy watches.  The log
    manager hands each cycle straight to the parse stage, so nothing
    else queues between the two.
    """
    bus = service.bus
    ends = bus.end_offsets("logs.raw")
    committed = bus.committed("logs.raw", "log-manager")
    return sum(e - c for e, c in zip(ends, committed))


def front_door(
    service: Any,
    *,
    host: str = "127.0.0.1",
    tcp_port: int = 0,
    http_port: Optional[int] = 0,
    limits: Optional[IngestLimits] = None,
    default_source: str = "tcp",
    check_pending_every: int = 16,
    sleeper: Optional[Callable[[float], Awaitable[None]]] = None,
) -> IngestServer:
    """An :class:`IngestServer` fully wired to a ``LogLensService``.

    Sink is the service's :meth:`ingest` hot path, backpressure follows
    the real bus backlog (:func:`service_pending`), rejected lines land
    on the ``loglens.ingest`` dead-letter topic with their reason, and
    the service's fault plan / metrics registry carry through — so
    ``loglens chaos`` can prove zero loss across the socket too.
    ``limits`` defaults to the service config's ingestion limits.
    """

    def reject_sink(head: str, source: str, reason: str) -> None:
        service.bus.produce_failed(
            INGEST_STAGE,
            {"raw": head, "source": source},
            reason,
            key=source,
            metadata={"stage": INGEST_STAGE, "reason": reason},
        )

    if limits is None:
        limits = getattr(
            getattr(service, "config", None), "ingest", None
        ) or IngestLimits()
    return IngestServer(
        service.ingest,
        host=host,
        tcp_port=tcp_port,
        http_port=http_port,
        limits=limits,
        pending=lambda: service_pending(service),
        reject_sink=reject_sink,
        fault_plan=getattr(service, "fault_plan", None),
        metrics=service.metrics,
        default_source=default_source,
        check_pending_every=check_pending_every,
        sleeper=sleeper,
    )
