"""Thread-safety of a shared parser, and engine record accounting.

One *shared* ``FastLogParser`` driven by many plain threads: every
thread races on the same ``PatternIndex`` (group builds/memoisation) and
the same stats counters — the locks exist because callers may share a
parser across threads.  The engine half runs many batches ×
rebroadcasts on both execution backends and pins the invariants the
scheduler must keep — no record lost to ``zip`` truncation, per-partition
counters summing to the input.
"""

import sys
import threading

import pytest

from repro.obs import MetricsRegistry, NullRegistry
from repro.parsing.grok import GrokPattern
from repro.parsing.parser import FastLogParser, PatternModel
from repro.parsing.tokenizer import Tokenizer
from repro.service.loglens_service import ParseOperator
from repro.streaming import EXECUTION_BACKENDS
from repro.streaming.engine import Collector, StreamingContext
from repro.streaming.partitioner import HashPartitioner
from repro.streaming.records import StreamRecord


def _model():
    exprs = [
        "job %{NUMBER:id} start",
        "job %{NUMBER:id} done %{NUMBER:ms} ms",
        "user %{WORD:u} login from %{IP:ip}",
    ]
    return PatternModel(
        [
            GrokPattern.from_string(e, pattern_id=i + 1)
            for i, e in enumerate(exprs)
        ]
    )


def _make_lines(batch_index, batch_size):
    """Unique lines per batch, cycling over several log *shapes*.

    Varying trailing token counts produce distinct signatures, forcing
    concurrent group builds on the shared index; a slice of unparseable
    shapes exercises the anomaly path and empty-group memoisation.
    """
    lines = []
    for i in range(batch_size):
        uid = batch_index * batch_size + i
        shape = i % 6
        if shape == 0:
            lines.append("job %d start" % uid)
        elif shape == 1:
            lines.append("job %d done %d ms" % (uid, uid % 97))
        elif shape == 2:
            lines.append("user u%d login from 10.0.0.%d" % (uid, uid % 250))
        else:
            # Unparseable shapes of varying length -> distinct signatures.
            lines.append(
                "noise %d %s" % (uid, " ".join(["x"] * (shape - 2)))
            )
    return lines


NUM_PARTITIONS = 8
BATCHES = 24
BATCH_SIZE = 160
REBROADCAST_EVERY = 6


class TestSharedParserThreadStress:
    def test_no_lost_parses_and_consistent_counters(self):
        metrics = MetricsRegistry()
        parsers = []
        results = []
        results_lock = threading.Lock()
        total = 0

        def drive(parser, lines, barrier):
            barrier.wait(timeout=30)
            local = [
                (line, parser.parse(line, source="stress"))
                for line in lines
            ]
            with results_lock:
                results.extend(local)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for b in range(BATCHES):
                if b % REBROADCAST_EVERY == 0:
                    # A fresh shared parser whose index must be (re)built
                    # concurrently by every thread.
                    parsers.append(
                        FastLogParser(
                            _model(), tokenizer=Tokenizer(), metrics=metrics
                        )
                    )
                lines = _make_lines(b, BATCH_SIZE)
                total += len(lines)
                barrier = threading.Barrier(NUM_PARTITIONS)
                threads = [
                    threading.Thread(
                        target=drive,
                        args=(parsers[-1], lines[i::NUM_PARTITIONS], barrier),
                    )
                    for i in range(NUM_PARTITIONS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)

        # --- No line lost, none duplicated ---------------------------
        assert len(results) == total
        assert len({raw for raw, _ in results}) == total

        # --- Per-parser counters are exact ---------------------------
        # Each lookup increments exactly one of group_hits/group_builds;
        # torn increments (the pre-fix race) would break these identities.
        assert sum(p.stats.total for p in parsers) == total
        for p in parsers:
            stats = p.index.stats
            assert stats.lookups == p.stats.total
            assert stats.group_hits + stats.group_builds == stats.lookups

        # --- Registry families agree with the per-instance sums ------
        assert metrics.counter("parser.parsed").value + \
            metrics.counter("parser.anomalies").value == total
        assert metrics.counter("index.lookups").value == total

        # --- Parse results are real parses, not torn state -----------
        parsed = [res for _, res in results if not _is_anomaly(res)]
        assert parsed, "expected a parseable slice of the stream"
        assert all(res.pattern_id in (1, 2, 3) for res in parsed)


class TestEngineRecordAccounting:
    @pytest.mark.parametrize("execution", EXECUTION_BACKENDS)
    def test_no_lost_records_across_batches_and_rebroadcasts(
        self, execution
    ):
        metrics = MetricsRegistry()
        ctx = StreamingContext(
            num_partitions=NUM_PARTITIONS,
            metrics=metrics,
            execution=execution,
        )
        model_bv = ctx.broadcast(_model())
        # The service's own parse stage: picklable, one resident parser
        # per worker, rebuilt when the broadcast model changes.
        parse = ParseOperator(model_bv, Tokenizer, NullRegistry())
        collector = ctx.source().flat_map(parse).collector()

        total = 0
        try:
            for b in range(BATCHES):
                if b and b % REBROADCAST_EVERY == 0:
                    # Zero-downtime model update between two batches.
                    ctx.rebroadcast(model_bv, _model())
                lines = _make_lines(b, BATCH_SIZE)
                batch = [
                    StreamRecord(
                        value={"raw": line, "source": "stress"},
                        key="k%d" % (i % 31),
                    )
                    for i, line in enumerate(lines)
                ]
                ctx.run_batch(batch)
                total += len(batch)
        finally:
            ctx.shutdown()

        # --- No record lost, none duplicated -------------------------
        out = collector.snapshot()
        assert len(out) == total
        results = [r.value for r in out]
        raws = {
            res.logs[0] if _is_anomaly(res) else res.raw for res in results
        }
        assert len(raws) == total
        parsed = [res for res in results if not _is_anomaly(res)]
        assert parsed, "expected a parseable slice of the stream"
        assert all(res.pattern_id in (1, 2, 3) for res in parsed)

        # --- Engine counters saw every record exactly once -----------
        assert metrics.counter("engine.records").value == total
        per_partition = sum(
            metrics.counter(
                "engine.partition_records", partition=str(i)
            ).value
            for i in range(NUM_PARTITIONS)
        )
        assert per_partition == total

        # --- Engine/batch instrumentation saw every batch ------------
        assert metrics.histogram("engine.batch_seconds").count == BATCHES
        assert metrics.histogram(
            "engine.rebroadcast_apply_seconds"
        ).count == BATCHES


def _is_anomaly(result):
    from repro.core.anomaly import Anomaly

    return isinstance(result, Anomaly)


class TestRunBatchPartitionerValidation:
    def test_mismatched_partitioner_raises_instead_of_dropping(self):
        """A partitioner producing more buckets than workers used to have
        its trailing buckets silently zip-dropped — lost records."""
        ctx = StreamingContext(num_partitions=2)
        out = ctx.source().collector().view()
        ctx.partitioner = HashPartitioner(5)
        with pytest.raises(ValueError) as exc:
            ctx.run_batch([StreamRecord(value=1, key="k")])
        assert "5" in str(exc.value) and "2" in str(exc.value)
        assert out == []  # nothing half-processed

    def test_matching_custom_partitioner_still_works(self):
        ctx = StreamingContext(num_partitions=3)
        ctx.partitioner = HashPartitioner(3)
        out = ctx.source().collector().view()
        ctx.run_batch([StreamRecord(value=i, key=str(i)) for i in range(9)])
        assert len(out) == 9


class TestCollector:
    def test_snapshot_is_a_stable_copy(self):
        ctx = StreamingContext(num_partitions=2)
        collector = ctx.source().collector()
        ctx.run_batch([StreamRecord(value=i, key=str(i)) for i in range(5)])
        snap = collector.snapshot()
        ctx.run_batch([StreamRecord(value=9, key="z")])
        assert len(snap) == 5          # unchanged by later batches
        assert len(collector) == 6

    def test_clear_drains_atomically(self):
        collector = Collector()
        for i in range(3):
            collector.append(StreamRecord(value=i))
        drained = collector.clear()
        assert len(drained) == 3
        assert len(collector) == 0

    def test_collect_list_is_live_but_batch_stable(self):
        ctx = StreamingContext(num_partitions=2)
        out = ctx.source().collector().view()
        ctx.run_batch([StreamRecord(value=1, key="a")])
        assert len(out) == 1
