"""Service-level backend equivalence and lifecycle pins.

A :class:`LogLensService` on the process backend must produce the same
anomalies, the same report counters, and the same checkpoints as the
serial default — and checkpoints must move *between* backends, since an
operator restarting after a crash may come back with a different
execution config.
"""

import pytest

from repro.bench.workloads import service_workload
from repro.errors import ExecutionError, QuarantinedRecordError
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.service import LogLensService, ServiceConfig
from repro.streaming.records import StreamRecord
from repro.streaming.retry import RetryPolicy

TRAIN = [
    "2024-01-01 10:00:00 INFO job_1 start job",
    "2024-01-01 10:00:01 INFO job_1 end job",
    "2024-01-01 10:00:02 INFO job_2 start job",
    "2024-01-01 10:00:05 INFO job_2 end job",
] * 5

LIVE = [
    "2024-01-01 11:00:00 INFO job_9 start job",
    "2024-01-01 11:00:01 INFO job_9 end job",
    "2024-01-01 11:00:02 INFO job_8 start job",
    "???? totally unparsable line ????",
    "2024-01-01 11:00:04 INFO job_7 start job",
    "2024-01-01 11:00:06 INFO job_6 start job",
]


def make_service(execution, **overrides):
    config = ServiceConfig(
        num_partitions=3,
        metrics=MetricsRegistry(),
        execution=execution,
        **overrides,
    )
    service = LogLensService(config=config)
    service.train(TRAIN)
    return service


def replay(execution, lines=LIVE, **overrides):
    service = make_service(execution, **overrides)
    service.ingest(lines, source="app")
    service.run_until_drained()
    observed = {
        "checkpoint": service.checkpoint(),
        "open_events": service.open_event_count(),
        "flushed": service.final_flush(),
        "report": service.report(include_metrics=False).to_dict(),
        "anomalies": sorted(
            (d["type"], d.get("source"), d.get("raw"))
            for d in service.anomaly_storage.all()
        ),
    }
    service.close()
    return observed


class TestBackendEquivalence:
    def test_processes_match_serial_end_to_end(self):
        assert replay("serial") == replay("processes")

    def test_generated_corpus_equivalent(self):
        """A bigger seeded D1 corpus: real parse misses, open events,
        heartbeat expiries — the full anomaly surface, not a toy."""
        w = service_workload(24)

        def run(execution):
            service = LogLensService(
                config=ServiceConfig(
                    num_partitions=4,
                    metrics=MetricsRegistry(),
                    execution=execution,
                )
            )
            service.model_manager.register_built(w.models)
            service.model_manager.publish_all()
            service.flush_model_updates()
            service.ingest(w.lines, source="bench")
            service.run_until_drained()
            out = {
                "open_events": service.open_event_count(),
                "flushed": service.final_flush(),
                "report": service.report(include_metrics=False).to_dict(),
                "anomalies": sorted(
                    (d["type"], d.get("source"))
                    for d in service.anomaly_storage.all()
                ),
            }
            service.close()
            return out

        assert run("serial") == run("processes")


class TestCheckpointAcrossBackends:
    def test_serial_checkpoint_restores_into_process_service(self):
        donor = make_service("serial")
        donor.ingest(LIVE, source="app")
        donor.run_until_drained()
        snapshot = donor.checkpoint()
        expected_open = donor.open_event_count()
        donor.close()

        heir = make_service("processes")
        heir.restore_checkpoint(snapshot)
        assert heir.open_event_count() == expected_open
        assert heir.checkpoint()["partitions"] == snapshot["partitions"]
        heir.close()

    def test_process_checkpoint_restores_into_serial_service(self):
        donor = make_service("processes")
        donor.ingest(LIVE, source="app")
        donor.run_until_drained()
        snapshot = donor.checkpoint()
        expected_open = donor.open_event_count()
        donor.close()

        heir = make_service("serial")
        heir.restore_checkpoint(snapshot)
        assert heir.open_event_count() == expected_open
        assert heir.checkpoint()["partitions"] == snapshot["partitions"]
        heir.close()


def _poison_unparsable(record):
    value = getattr(record, "value", None)
    return isinstance(value, str) and "totally unparsable" in value


class TestFaultInjectionEquivalence:
    def test_poison_quarantine_equivalent(self):
        def observe(execution):
            plan = FaultPlan().poison("operator:flat_map:*",
                                      _poison_unparsable)
            service = make_service(
                execution,
                retry_policy=RetryPolicy.no_wait(max_attempts=2),
                fault_plan=plan,
            )
            service.ingest(LIVE, source="app")
            service.run_until_drained()
            quarantined = sorted(
                (q.record.value, q.attempts, q.error_type, q.kind)
                for q in service.parse_ctx.quarantine.snapshot()
            )
            report = service.report(include_metrics=False).to_dict()
            injected = plan.injected_total()
            service.close()
            return quarantined, report, injected

        assert observe("serial") == observe("processes")


def _poisoned_line(record):
    value = getattr(record, "value", None)
    return isinstance(value, dict) and "POISON" in value["raw"]


class TestFailingStep:
    """A step whose parse batch raises leaves every backend in the same
    place: each partition ran and was absorbed, and the next step starts
    from a clean slate."""

    SOURCES = ["src-%d" % i for i in range(6)]

    @classmethod
    def ingest_step(cls, service, hour):
        """Lines no other source or step shares, so a reply left over
        from an earlier step cannot pass for this one's."""
        for i, source in enumerate(cls.SOURCES):
            service.ingest(
                [
                    line.replace(" 11:", " %d:" % hour).replace(
                        "job_", "job_%d" % i
                    )
                    for line in LIVE
                ],
                source=source,
            )

    @classmethod
    def observe(cls, execution):
        service = make_service(
            execution,
            retry_policy=RetryPolicy.no_wait(
                max_attempts=2, on_exhaust="raise"
            ),
            fault_plan=FaultPlan().poison(
                "operator:flat_map:*", _poisoned_line
            ),
        )
        partitioner = service.parse_ctx.partitioner
        by_partition = sorted(
            (partitioner.partition(StreamRecord(None, key=s))[0], s)
            for s in cls.SOURCES
        )
        assert by_partition[0][0] == 0 and by_partition[-1][0] > 0
        poisoned_source = by_partition[0][1]
        try:
            service.ingest(
                ["2024-01-01 11:00:00 INFO POISON job_0 start job"],
                source=poisoned_source,
            )
            cls.ingest_step(service, 11)
            with pytest.raises(QuarantinedRecordError):
                service.step()
            cls.ingest_step(service, 12)
            after = service.step()
            return {
                "report": after,
                "archive": {
                    s: (
                        service.log_storage.by_source(s),
                        service.log_storage.time_range(s, 0, 2 ** 62),
                    )
                    for s in cls.SOURCES
                },
                "anomalies": service.anomaly_storage.all(),
            }
        finally:
            service.close()

    def test_next_step_matches_serial(self):
        serial = self.observe("serial")
        assert serial["report"].parsed > 0
        assert serial == self.observe("processes")


class TestServiceLifecycle:
    def test_close_shuts_down_both_streaming_contexts(self):
        """Pin for the historical leak: service teardown never called
        ``StreamingContext.shutdown()``, stranding backend resources."""
        service = make_service("serial")
        assert not service.parse_ctx._backend.closed
        assert not service.seq_ctx._backend.closed
        service.close()
        assert service.parse_ctx._backend.closed
        assert service.seq_ctx._backend.closed

    def test_close_reaps_worker_processes(self):
        service = make_service("processes")
        service.ingest(LIVE, source="app")
        service.run_until_drained()
        procs = list(service.parse_ctx._backend._procs) + list(
            service.seq_ctx._backend._procs
        )
        assert procs and all(p.is_alive() for p in procs)
        service.close()
        for p in procs:
            p.join(timeout=5)
        assert not any(p.is_alive() for p in procs)

    def test_close_is_idempotent(self):
        service = make_service("processes")
        service.ingest(LIVE, source="app")
        service.run_until_drained()
        service.close()
        service.close()

    def test_state_rpc_after_close_is_an_execution_error(self):
        service = make_service("processes")
        service.ingest(LIVE, source="app")
        service.run_until_drained()
        service.close()
        with pytest.raises(ExecutionError):
            service.open_event_count()

    def test_config_describe_reports_execution(self):
        config = ServiceConfig(execution="processes")
        assert config.describe()["execution"] == "processes"

    @pytest.mark.parametrize("name", ["hamsters", "threads"])
    def test_config_rejects_unknown_execution(self, name):
        with pytest.raises(
            ValueError,
            match="execution must be one of 'serial', 'processes'",
        ):
            ServiceConfig(execution=name)
