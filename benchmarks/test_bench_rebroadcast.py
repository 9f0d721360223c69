"""Section V-A — rebroadcast overhead and zero-downtime model updates.

Paper: re-initialising Spark broadcast variables costs seconds-to-minutes
of downtime and loses state; LogLens' rebroadcast applies updates between
micro-batches with negligible overhead (an in-memory swap whose cost
depends only on model size).

The bench measures micro-batch latency with and without a pending model
update and the pure swap cost as a function of model size.  Zero
downtime is what it measures: a batch that applies an update still runs
its whole input, and the swap is timed on its own
(``engine.rebroadcast_apply_seconds``).
"""

from __future__ import annotations

import pytest

from conftest import report
from repro.obs import MetricsRegistry
from repro.parsing.grok import GrokPattern
from repro.parsing.parser import PatternModel
from repro.streaming.engine import StreamingContext
from repro.streaming.records import StreamRecord


def _make_model(n_patterns):
    return PatternModel(
        [
            GrokPattern.from_string(
                "tag%d %%{WORD:w} %%{NUMBER:n}" % i, pattern_id=i + 1
            )
            for i in range(n_patterns)
        ]
    )


def _batch(n=500):
    return [StreamRecord(value=i, key="k%d" % (i % 50)) for i in range(n)]


def test_batch_without_update(benchmark):
    ctx = StreamingContext(num_partitions=4)
    bv = ctx.broadcast(_make_model(100))
    ctx.source().map(
        lambda r, w: (bv.get_value(w.block_manager), None)[1]
    )
    records = _batch()
    metrics = benchmark(lambda: ctx.run_batch(records))
    assert metrics.model_updates_applied == 0
    assert metrics.records_in == len(records)


def test_batch_with_pending_update(benchmark):
    registry = MetricsRegistry()
    ctx = StreamingContext(num_partitions=4, metrics=registry)
    model = _make_model(100)
    bv = ctx.broadcast(model)
    ctx.source().map(
        lambda r, w: (bv.get_value(w.block_manager), None)[1]
    )
    records = _batch()

    def run():
        ctx.rebroadcast(bv, model)
        return ctx.run_batch(records)

    metrics = benchmark(run)
    assert metrics.model_updates_applied == 1
    assert metrics.records_in == len(records)
    swaps = registry.histogram("engine.rebroadcast_apply_seconds")
    assert swaps.count == ctx.metrics.batches


@pytest.mark.parametrize("n_patterns", [10, 100, 1000])
def test_swap_cost_scales_with_model_size(benchmark, n_patterns):
    """The only blocking operation is the in-memory swap (paper)."""
    ctx = StreamingContext(num_partitions=8)
    model = _make_model(n_patterns)
    bv = ctx.broadcast(model)
    # Touch the variable on every worker so invalidation has work to do.
    for worker in ctx.workers:
        bv.get_value(worker.block_manager)

    def swap():
        ctx.rebroadcast(bv, model)
        return ctx.broadcast_manager.apply_pending_updates()

    applied = benchmark(swap)
    assert applied == 1


def test_update_overhead_summary():
    """Paired measurement: each pair runs one plain batch and one batch
    with a pending update back to back, alternating which goes first, so
    both sides of a pair see the same machine state."""
    import statistics
    import time

    pairs = 24
    registry = MetricsRegistry()
    ctx = StreamingContext(num_partitions=4, metrics=registry)
    model = _make_model(500)
    bv = ctx.broadcast(model)
    ctx.source().map(
        lambda r, w: (bv.get_value(w.block_manager), None)[1]
    )
    records = _batch(2000)

    def plain():
        ctx.run_batch(records)

    def swap_and_run():
        ctx.rebroadcast(bv, model)
        ctx.run_batch(records)

    def timed(fn):
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    plain()  # warm-up: fills every worker's block cache
    swaps = registry.histogram("engine.rebroadcast_apply_seconds")
    swaps.reset()
    plain_times, update_times, swap_costs = [], [], []

    def run_update():
        before = swaps.sum
        update_times.append(timed(swap_and_run))
        swap_costs.append(swaps.sum - before)

    for i in range(pairs):
        if i % 2:
            run_update()
            plain_times.append(timed(plain))
        else:
            plain_times.append(timed(plain))
            run_update()
    # Every batch times its swap phase, the plain ones included.
    assert swaps.count == 2 * pairs

    overheads = [
        (u - p) / p * 100 for p, u in zip(plain_times, update_times)
    ]
    overhead = statistics.median(overheads)
    q1, median_plain, q3 = statistics.quantiles(plain_times, n=4)
    spread = (q3 - q1) / median_plain * 100
    verdict = "within noise" if abs(overhead) < spread else "above noise"
    report(
        "Section V-A — model update overhead (%d paired runs)" % pairs,
        {
            "batch latency": "%.2f ms median" % (median_plain * 1e3),
            "batch latency w/ update": "%.2f ms median"
            % (statistics.median(update_times) * 1e3),
            "overhead": "%+.1f%% median per pair; plain runs' own "
            "quartile spread %.1f%%: %s (paper: negligible)"
            % (overhead, spread, verdict),
            "swap": "%.1f us mean, %.1f us max (paper: the only "
            "blocking operation)"
            % (
                statistics.mean(swap_costs) * 1e6, max(swap_costs) * 1e6
            ),
        },
    )
    assert ctx.metrics.model_updates == pairs
