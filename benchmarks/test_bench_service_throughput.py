"""End-to-end service throughput.

Not a table of the paper, but its design goal ("handle high volume and
high velocity of the log streams in real-time", Section II-A): measure
how many logs per second the fully wired service sustains — agent topic →
log manager → parse stage → shuffle → sequence stage → anomaly storage —
and that heartbeats and anomalies don't stall the pipeline.
"""

from __future__ import annotations

from conftest import report
from repro.bench import measure
from repro.core.pipeline import LogLens
from repro.datasets.trace import generate_d1

_state = {}


def _setup():
    if "service" not in _state:
        dataset = generate_d1(events_per_workflow=400)
        _state["dataset"] = dataset
        _state["lens"] = LogLens().fit(dataset.train)
    return _state["dataset"], _state["lens"]


def test_end_to_end_throughput(benchmark):
    dataset, lens = _setup()

    def run():
        service = lens.to_service()
        service.ingest(dataset.test, source="bench")
        service.run_until_drained()
        service.final_flush()
        return service.anomaly_storage.count()

    anomalies = benchmark.pedantic(run, rounds=1, iterations=1)
    assert anomalies == dataset.total_anomalies


def test_throughput_summary():
    dataset, lens = _setup()
    service = lens.to_service()
    service.ingest(dataset.test, source="bench")
    steps = []
    elapsed = measure(
        lambda: steps.extend(service.run_until_drained()),
        repeats=1,
        warmup=0,
    ).median
    service.final_flush()
    rate = len(dataset.test) / elapsed
    svc_report = service.report(include_metrics=False)
    report(
        "Service throughput — full pipeline",
        {
            "logs processed": "%d" % len(dataset.test),
            "wall time": "%.2f s" % elapsed,
            "throughput": "%.0f logs/s" % rate,
            "batches": "%d parse + %d sequence"
            % (svc_report.parse_batches, svc_report.sequence_batches),
            "anomalies": "%d" % svc_report.anomalies,
            "lines parsed": "%d of %d ingested"
            % (sum(s.parsed for s in steps), sum(s.ingested for s in steps)),
        },
    )
    assert sum(s.ingested for s in steps) == len(dataset.test)
    assert rate > 500  # the simulator must sustain real-time log rates
