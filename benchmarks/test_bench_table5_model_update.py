"""Table V — anomaly detection across live model updates.

Paper: D1's model has 2 automata and reports 21 anomalies; deleting one
automaton (through the model controller, without service interruption)
drops the count to 13.  D2: 3 automata, 13 anomalies → delete one → 9.

The bench performs the delete through the full management plane (model
manager → controller → queued rebroadcast) on a *running* service and
verifies both the counts and the zero-downtime property as measured:
the step that applies the delete parses its whole batch, and the only
pause is the swap between batches (``engine.rebroadcast_apply_seconds``).
"""

from __future__ import annotations

from conftest import report
from repro.core.pipeline import LogLens


def _automaton_anomaly_counts(lens, dataset):
    """Anomaly count after deleting each automaton in turn (offline)."""
    baseline = len(lens.detect(dataset.test, flush_open_events=True))
    counts = {}
    for automaton in lens.sequence_model:
        clone = LogLens(lens.config)
        clone._pattern_model = lens.pattern_model
        clone._sequence_model = lens.sequence_model.without(
            automaton.automaton_id
        )
        counts[automaton.automaton_id] = len(
            clone.detect(dataset.test, flush_open_events=True)
        )
    return baseline, counts


def test_d1_delete_automaton_offline(benchmark, d1_dataset, d1_lens):
    baseline, counts = benchmark.pedantic(
        _automaton_anomaly_counts,
        args=(d1_lens, d1_dataset),
        rounds=1,
        iterations=1,
    )
    assert baseline == 21
    assert len(d1_lens.sequence_model) == 2, "paper: D1 has 2 automata"
    assert 13 in counts.values(), "paper: 21 -> 13 after delete"


def test_d2_delete_automaton_offline(benchmark, d2_dataset, d2_lens):
    baseline, counts = benchmark.pedantic(
        _automaton_anomaly_counts,
        args=(d2_lens, d2_dataset),
        rounds=1,
        iterations=1,
    )
    assert baseline == 13
    assert len(d2_lens.sequence_model) == 3, "paper: D2 has 3 automata"
    assert 9 in counts.values(), "paper: 13 -> 9 after delete"


def test_live_update_on_running_service(d1_dataset, d1_lens):
    """The actual Table V procedure: update the model mid-stream with the
    service running — no restart, no state loss, no downtime."""
    service = d1_lens.to_service()
    # Replay the first half, then delete the heavier automaton, then
    # replay the rest; the service keeps processing throughout.
    half = len(d1_dataset.test) // 2
    service.ingest(d1_dataset.test[:half], source="d1")
    service.run_until_drained()
    target = None
    offline_baseline, counts = _automaton_anomaly_counts(
        d1_lens, d1_dataset
    )
    for automaton_id, count in counts.items():
        if count == 13:
            target = automaton_id
    assert target is not None
    service.model_manager.delete_automaton(target)
    service.ingest(d1_dataset.test[half:], source="d1")
    swaps = service.metrics.histogram("engine.rebroadcast_apply_seconds")
    before = swaps.sum
    applying = service.step()
    swap_seconds = swaps.sum - before
    service.run_until_drained()
    service.final_flush()
    after_count = service.anomaly_storage.count()
    # Every anomaly of the deleted automaton in the 2nd half is gone; the
    # total therefore falls between the reduced-model count and baseline.
    assert 13 <= after_count <= 21
    # Zero downtime: the step that applies the delete parses every line
    # it polled; the swap between its batches is all the pause there is.
    assert applying.model_updates_applied == 1
    assert applying.ingested > 0
    assert applying.parsed == applying.ingested
    assert swap_seconds > 0
    assert service.report(include_metrics=False).model_updates >= 3
    report(
        "Table V — live model update",
        {
            "D1 baseline": "21 anomalies, 2 automata",
            "after delete (offline)": "%s (paper 13)" % sorted(
                counts.values()
            ),
            "live service total": "%d with mid-stream delete" % after_count,
            "swap in the applying step": "%.3f ms, %d lines parsed "
            "(paper: zero-downtime)" % (swap_seconds * 1e3, applying.parsed),
        },
    )
