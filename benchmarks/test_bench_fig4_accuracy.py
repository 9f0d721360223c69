"""Figure 4 — log sequence anomaly detection accuracy.

Paper: D1 contains 21 anomalous sequences and the detector identifies all
21; D2 contains 13 and the detector identifies all 13 — 100% recall on
both datasets.

The benchmark measures end-to-end detection throughput (parse + stateful
validation over the full test split) while asserting the exact recall.
"""

from __future__ import annotations

from conftest import report


def _detect(lens, dataset, flush=True):
    return lens.detect(dataset.test, flush_open_events=flush)


def test_d1_recall(benchmark, d1_dataset, d1_lens):
    anomalies = benchmark.pedantic(
        _detect, args=(d1_lens, d1_dataset), rounds=1, iterations=1
    )
    assert len(anomalies) == 21, "paper: 21/21 detected on D1"


def test_d2_recall(benchmark, d2_dataset, d2_lens):
    anomalies = benchmark.pedantic(
        _detect, args=(d2_lens, d2_dataset), rounds=1, iterations=1
    )
    assert len(anomalies) == 13, "paper: 13/13 detected on D2"


def test_figure4_summary(d1_dataset, d1_lens, d2_dataset, d2_lens):
    from repro.core.evaluation import evaluate_detection

    d1 = _detect(d1_lens, d1_dataset)
    d2 = _detect(d2_lens, d2_dataset)
    d1_clean = d1_lens.detect(d1_dataset.train, flush_open_events=True)
    d2_clean = d2_lens.detect(d2_dataset.train, flush_open_events=True)
    # Strict matching by event id: no compensating errors behind the
    # counts.
    d1_eval = evaluate_detection(d1, d1_dataset.injected)
    d2_eval = evaluate_detection(d2, d2_dataset.injected)
    report(
        "Figure 4 — sequence anomaly recall",
        {
            "D1": "%d/%d detected (paper 21/21), %s"
            % (len(d1), d1_dataset.total_anomalies, d1_eval.summary()),
            "D2": "%d/%d detected (paper 13/13), %s"
            % (len(d2), d2_dataset.total_anomalies, d2_eval.summary()),
            "false positives (clean replay)": "%d + %d"
            % (len(d1_clean), len(d2_clean)),
        },
    )
    assert d1_eval.perfect and d2_eval.perfect
    assert len(d1) == d1_dataset.total_anomalies == 21
    assert len(d2) == d2_dataset.total_anomalies == 13
    assert not d1_clean and not d2_clean
