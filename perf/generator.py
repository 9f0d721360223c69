"""Load generator of the ``socket`` workload: its own process.

Single-threaded, two ``IngestClient`` connections used alternately (one
shared source name, so the stream's order — and with it every event's
line order — survives the trip).  It takes three cues on stdin and
never slows down because the service does:

``warmup``  ships the warm-up lines in closed loop, then a marker;
``go``      *paced* phase: ``paced_batch_lines`` lines on a fixed
            ``paced_hz`` schedule, each batch ending in the marker
            ``BENCH-MARK p<k> <due_ns>`` (due time on CLOCK_MONOTONIC,
            which the service process shares), then the *blast* phase:
            everything that is left, one acked batch in flight, ending
            in ``BENCH-MARK blast-end <first_send_ns>``.

Its last stdout line is a JSON report (lines sent and acked, retries,
how late the paced schedule ran).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402
from child import MARKER, pin_to_cpu  # noqa: E402


def main(argv: List[str]) -> int:
    spec: Dict[str, Any] = json.loads(argv[1])
    pin_to_cpu(spec.get("cpu"))
    sys.path.insert(0, spec["src"])
    from repro.ingest import IngestClient

    lines = [line for _, line in workloads.read_stream(spec["stream"])]
    warm_size, warm_batches = workloads.SHAPES["socket"]
    warm_lines = warm_size * warm_batches
    paced_lines = spec["paced_batches"] * spec["paced_batch_lines"]
    warm = lines[:warm_lines]
    paced = lines[warm_lines:warm_lines + paced_lines]
    blast = lines[warm_lines + paced_lines:]

    clients = [
        IngestClient(
            "127.0.0.1",
            spec["port"],
            workloads.EVENT_SOURCE,
            batch_lines=4096,
        )
        for _ in range(2)
    ]
    sent = accepted = retries = batches = 0

    def ship(index: int, batch: List[str]) -> None:
        nonlocal sent, accepted, retries, batches
        report = clients[index % 2].send(batch)
        sent += len(batch)
        accepted += report.accepted
        retries += report.retries
        batches += report.batches

    print("ready", flush=True)
    byes: List[Any] = []
    late_ns: List[int] = []
    try:
        if sys.stdin.readline().strip() != "warmup":
            return 2
        for k, start in enumerate(range(0, len(warm), warm_size)):
            ship(k, warm[start:start + warm_size])
        ship(0, ["%s warmup 0" % MARKER])

        if sys.stdin.readline().strip() != "go":
            return 2
        size = spec["paced_batch_lines"]
        period_ns = int(1e9 / spec["paced_hz"])
        origin = time.monotonic_ns() + 20_000_000
        for k, start in enumerate(range(0, len(paced), size)):
            due = origin + k * period_ns
            wait = due - time.monotonic_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            late_ns.append(max(0, time.monotonic_ns() - due))
            ship(k, paced[start:start + size] + ["%s p%d %d" % (MARKER, k, due)])

        size = spec["blast_batch_lines"]
        first_send = time.monotonic_ns()
        starts = list(range(0, len(blast), size))
        for k, start in enumerate(starts):
            batch = blast[start:start + size]
            if start == starts[-1]:
                batch = batch + ["%s blast-end %d" % (MARKER, first_send)]
            ship(k, batch)
    finally:
        for client in clients:
            byes.append(client.close())
    late_ns.sort()
    print(
        json.dumps(
            {
                "sent_lines": sent,
                "acked_lines": accepted,
                "retries": retries,
                "batches": batches,
                "paced_lines": len(paced),
                "blast_lines": len(blast),
                "late_ms_p95": (
                    late_ns[int(len(late_ns) * 0.95)] / 1e6 if late_ns else 0.0
                ),
                "late_ms_max": late_ns[-1] / 1e6 if late_ns else 0.0,
                "byes": byes,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
