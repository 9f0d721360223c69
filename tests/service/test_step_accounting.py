"""StepReport anomaly counts come from the stores, not from a read-back.

``step()`` used to slice ``anomaly_storage.all()`` (plus two ``count()``
queries) to split the step's anomalies into stateless and sequence —
a per-step cost growing with the whole anomaly table.
"""

from unittest import mock

import pytest

from repro.service.config import ServiceConfig
from repro.service.loglens_service import LogLensService

from tests.service.test_loglens_service import event_lines, training_lines

STEPS = 60


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_step_counts_anomalies_without_reading_the_table(storage, tmp_path):
    spec = "memory" if storage == "memory" else "sqlite:%s" % (
        tmp_path / "loglens.db"
    )
    service = LogLensService(
        config=ServiceConfig(num_partitions=2, storage=spec)
    )
    service.train(training_lines())
    anomalies = service.anomaly_storage
    stateless = sequence = 0
    try:
        with mock.patch.object(
            anomalies, "all", wraps=anomalies.all
        ) as all_spy, mock.patch.object(
            anomalies, "count", wraps=anomalies.count
        ) as count_spy:
            for i in range(STEPS):
                # Every third event never closes: it expires on a later
                # step's heartbeat, once log time has moved past it.
                lines = event_lines("fl-%d" % i, i, finish=i % 3 != 0)
                # Garbage without a timestamp is held and stamped at the
                # end of the step; garbage with one is stored directly.
                lines.append("completely unknown format %d !!" % i)
                if i % 2:
                    lines.append(
                        "2016/05/09 10:%02d:05 ?? unknown ?? %d" % (i, i)
                    )
                service.ingest(lines, source="app")
                report = service.step()
                stateless += report.stateless_anomalies
                sequence += report.sequence_anomalies
        assert all_spy.call_count == 0
        assert count_spy.call_count == 0

        unparsed = len(anomalies.by_type("unparsed_log"))
        assert unparsed >= STEPS
        assert stateless == unparsed
        assert sequence > 0
        assert sequence == len(anomalies.all()) - unparsed
    finally:
        service.close()


# ----------------------------------------------------------------------
# One write path: every anomaly a step (or final_flush) stages reaches
# the backend in exactly one insert_many call.
# ----------------------------------------------------------------------
def _service(storage, tmp_path, num_partitions=2, **config):
    spec = "memory" if storage == "memory" else "sqlite:%s" % (
        tmp_path / "loglens.db"
    )
    service = LogLensService(
        config=ServiceConfig(
            num_partitions=num_partitions, storage=spec, **config
        )
    )
    service.train(training_lines())
    return service


def _scripted_lines(i):
    # Every third event never closes and expires on a later heartbeat.
    lines = event_lines("wp-%d" % i, i, finish=i % 3 != 0)
    lines.append("2016/05/09 10:%02d:05 ?? unknown ?? %d" % (i, i))
    lines.append("completely unknown format %d !!" % i)
    return lines


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_each_step_writes_its_anomalies_in_one_batch(storage, tmp_path):
    # Heartbeats on even steps only, so the odd 13th step leaves its
    # event open for final_flush.
    service = _service(storage, tmp_path, heartbeat_period_steps=2)
    backend = service.anomaly_storage._store
    expired_seen = False
    try:
        with mock.patch.object(
            backend, "insert_many", wraps=backend.insert_many
        ) as many, mock.patch.object(
            backend, "insert", wraps=backend.insert
        ) as single:
            for i in range(12):
                before = many.call_count
                service.ingest(_scripted_lines(i), source="app")
                report = service.step()
                assert many.call_count - before == 1
                docs = list(many.call_args[0][0])
                assert len(docs) == (
                    report.stateless_anomalies + report.sequence_anomalies
                )
                # Timestamped docs in sink order (parse stage, then the
                # sequence stage), then the timestamp-less garbage line
                # stamped with log-time "now".
                assert docs[0]["logs"] == [
                    "2016/05/09 10:%02d:05 ?? unknown ?? %d" % (i, i)
                ]
                assert docs[-1]["logs"] == [
                    "completely unknown format %d !!" % i
                ]
                assert docs[-1]["timestamp_millis"] == service.log_time_now()
                middle = docs[1:-1]
                assert all(d["type"] != "unparsed_log" for d in middle)
                expired_seen = expired_seen or bool(middle)

            # The event left open is judged by final_flush, which takes
            # the same one-batch write.
            service.ingest(
                event_lines("wp-open", 40, finish=False), source="app"
            )
            service.step()
            assert service.open_event_count() > 0
            before = many.call_count
            flushed = service.final_flush()
            assert flushed > 0
            assert many.call_count - before == 1
            assert len(list(many.call_args[0][0])) == flushed
        assert single.call_count == 0
        assert expired_seen
        stored = service.anomaly_storage.all()
        assert [d["_id"] for d in stored] == list(range(len(stored)))
        assert all(d["timestamp_millis"] is not None for d in stored)
    finally:
        service.close()


@pytest.mark.parametrize("storage", ["memory", "sqlite"])
def test_a_raising_parse_stage_loses_no_staged_doc(storage, tmp_path):
    from repro.faults import FaultPlan, ManualClock
    from repro.streaming.retry import RetryPolicy

    plan = FaultPlan().poison(
        "operator:flat_map:*", lambda r: "POISON" in r.value["raw"]
    )
    service = _service(
        storage,
        tmp_path,
        num_partitions=1,
        retry_policy=RetryPolicy.no_wait(
            max_attempts=2, on_exhaust="raise", clock=ManualClock()
        ),
        fault_plan=plan,
    )
    staged = [
        "2016/05/09 10:00:05 ?? unknown ?? 0",
        "completely unknown format 0 !!",
    ]
    try:
        service.ingest(staged + ["POISON line"], source="app")
        with pytest.raises(Exception):
            service.step()
        docs = service.anomaly_storage.all()
        assert [d["logs"] for d in docs] == [[raw] for raw in staged]
        assert all(d["timestamp_millis"] is not None for d in docs)
        # Nothing stays staged: the next write carries only new docs.
        service.ingest(["completely unknown format 1 !!"], source="app")
        service.step()
        assert [d["logs"] for d in service.anomaly_storage.all()] == [
            [raw] for raw in staged
        ] + [["completely unknown format 1 !!"]]
    finally:
        service.close()
