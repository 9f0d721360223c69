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
