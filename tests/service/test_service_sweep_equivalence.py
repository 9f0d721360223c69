"""End-to-end heap/linear sweep equivalence through LogLensService.

Drives two identically-configured services over the same traffic — one
whose partition detectors use the heap-scheduled sweep (the default),
one forced onto the linear oracle — and asserts they store identical
anomalies, including across a checkpoint/restore and with heartbeat
faults injected via :mod:`repro.faults`.
"""

from unittest import mock

from repro.faults import FaultPlan
from repro.service.config import ServiceConfig
from repro.service.loglens_service import LogLensService

from tests.sequence.test_sweep_equivalence import LinearSweepDetector

from .test_loglens_service import event_lines, training_lines


def linear_service(**kwargs):
    with mock.patch(
        "repro.service.loglens_service.LogSequenceDetector",
        LinearSweepDetector,
    ):
        service = LogLensService(config=ServiceConfig(num_partitions=2, **kwargs))
        service.train(training_lines())
    return service


def heap_service(**kwargs):
    service = LogLensService(config=ServiceConfig(num_partitions=2, **kwargs))
    service.train(training_lines())
    return service


def traffic(service):
    """Completed, abandoned, and slow events across two sources."""
    service.ingest(event_lines("fl-ok", 20), source="app")
    service.ingest(
        event_lines("fl-hang", 21, finish=False), source="app"
    )
    service.ingest(event_lines("fl-db", 22), source="db")
    service.run_until_drained()
    # Silence long enough for heartbeat extrapolation to expire fl-hang.
    for _ in range(40):
        service.step()


def stored_anomalies(service):
    return [
        {k: v for k, v in doc.items() if k != "_id"}
        for doc in service.anomaly_storage.all()
    ]


class TestServiceSweepEquivalence:
    def test_same_anomalies_same_order(self):
        heap = heap_service()
        linear = linear_service()
        traffic(heap)
        traffic(linear)
        assert stored_anomalies(heap) == stored_anomalies(linear)
        assert heap.anomaly_storage.count() > 0
        assert heap.open_event_count() == linear.open_event_count()

    def test_equivalence_after_restore_checkpoint(self):
        heap = heap_service()
        linear = linear_service()
        for service in (heap, linear):
            service.ingest(
                event_lines("fl-hang", 30, finish=False), source="app"
            )
            service.run_until_drained()
        checkpoint = heap.checkpoint()
        assert checkpoint == linear.checkpoint()
        # Resume both from the same checkpoint into fresh services.
        heap2 = heap_service()
        linear2 = linear_service()
        with mock.patch(
            "repro.service.loglens_service.LogSequenceDetector",
            LinearSweepDetector,
        ):
            linear2.restore_checkpoint(checkpoint)
        heap2.restore_checkpoint(checkpoint)
        assert heap2.open_event_count() == linear2.open_event_count() == 1
        for service in (heap2, linear2):
            for _ in range(40):
                service.step()
        assert stored_anomalies(heap2) == stored_anomalies(linear2)
        assert len(heap2.anomaly_storage.by_type("missing_end")) == 1

    def test_equivalence_under_heartbeat_faults(self):
        """Dropped heartbeat emissions delay sweeps identically."""

        def plan():
            return FaultPlan().fail_nth(
                "heartbeat.emit", 1, 2, 3, 5, 8, 13
            )

        heap = heap_service(fault_plan=plan())
        linear = linear_service(fault_plan=plan())
        traffic(heap)
        traffic(linear)
        assert stored_anomalies(heap) == stored_anomalies(linear)
        assert len(heap.anomaly_storage.by_type("missing_end")) == 1
