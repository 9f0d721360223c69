"""Thread-safety of a shared parser, and engine record accounting.

One *shared* ``FastLogParser`` driven by many plain threads: every
thread races on the same ``PatternIndex`` (group builds/memoisation) and
the same registry counters — the locks exist because callers may share a
parser across threads.  A cold ``PatternIndex`` raced by eight threads
must take its rank-and-mask snapshot once and build each group once.
The engine half runs many batches × rebroadcasts on both execution
backends and pins the invariants the scheduler must keep — no record
lost to ``zip`` truncation, per-partition counters summing to the input.
"""

import itertools
import sys
import threading

import pytest

from repro.obs import MetricsRegistry, NullRegistry
from repro.parsing.grok import GrokPattern
from repro.parsing.index import PatternIndex
from repro.parsing.parser import FastLogParser, PatternModel
from repro.parsing.timestamps import TimestampDetector
from repro.parsing.tokenizer import TokenizedLog, Tokenizer
from repro.service.loglens_service import ParseOperator
from repro.streaming import EXECUTION_BACKENDS
from repro.streaming.engine import Collector, StreamingContext
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

        # --- Parse results are real parses, not torn state -----------
        parsed = [res for _, res in results if not _is_anomaly(res)]
        assert parsed, "expected a parseable slice of the stream"
        assert all(res.pattern_id in (1, 2, 3) for res in parsed)

        # --- Registry counters are exact -----------------------------
        # Each lookup increments exactly one of group_hits/group_builds;
        # torn increments (the pre-fix race) would break these identities.
        def count(name):
            return metrics.counter(name).value

        assert count("parser.parsed") == len(parsed)
        assert count("parser.anomalies") == total - len(parsed)
        assert count("index.lookups") == total
        assert (
            count("index.group_hits") + count("index.group_builds")
            == count("index.lookups")
        )


MIXED_LINES = 8000
MIXED_CHUNK = 40


def _count_names(registry):
    return sorted(
        name for name in registry.names()
        if name.split(".")[0] in ("parser", "tokenizer", "index")
    )


class TestMixedCallStress:
    def test_parse_and_parse_batch_share_a_parser_exactly(self):
        """Two threads call ``parse`` line by line and two call
        ``parse_batch`` chunk by chunk, all on one parser: with no flush
        call, every parse-plane count equals a one-thread run's."""
        lines = _make_lines(0, MIXED_LINES)
        for i in range(0, MIXED_LINES, 5):
            # Some timestamps, so tokenizer.timestamps_detected counts.
            lines[i] = "2024-01-01 10:%02d:%02d %s" % (
                i // 60 % 60, i % 60, lines[i]
            )
        metrics = MetricsRegistry()
        parser = FastLogParser(
            _model(), tokenizer=Tokenizer(metrics=metrics), metrics=metrics
        )
        slices = [lines[i::4] for i in range(4)]
        barrier = threading.Barrier(4)

        def per_line(part):
            barrier.wait(timeout=30)
            for line in part:
                parser.parse(line)

        def per_batch(part):
            barrier.wait(timeout=30)
            for i in range(0, len(part), MIXED_CHUNK):
                parser.parse_batch(part[i:i + MIXED_CHUNK])

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=fn, args=(part,))
                for fn, part in zip(
                    (per_line, per_batch, per_line, per_batch), slices
                )
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)

        reference = MetricsRegistry()
        FastLogParser(
            _model(), tokenizer=Tokenizer(metrics=reference),
            metrics=reference,
        ).parse_batch(lines)
        names = _count_names(reference)
        assert "tokenizer.timestamps_detected" in names
        assert names == _count_names(metrics)
        for name in names:
            if name == "parser.parse_seconds":
                assert metrics.histogram(name).count == MIXED_LINES
            elif name != "index.group_build_seconds":
                assert (
                    metrics.counter(name).value
                    == reference.counter(name).value
                ), name
        assert metrics.counter("tokenizer.logs").value == MIXED_LINES


COLD_THREADS = 8
COLD_TYPES = ("WORD", "NUMBER", "IP", "NOTSPACE")


def _cold_logs():
    """One log per distinct signature: every datatype sequence of one to
    three tokens (84 shapes)."""
    return [
        TokenizedLog(" ".join(shape), list(shape), list(shape))
        for n in (1, 2, 3)
        for shape in itertools.product(COLD_TYPES, repeat=n)
    ]


class TestColdIndexRace:
    def test_cold_index_snapshot_once_groups_exact(self):
        """Eight threads race on a fresh index, each looking up every
        distinct signature in its own order: the rank-and-mask snapshot
        is taken once, each group is built once, and every group equals
        a serial build's."""
        patterns = _model().patterns + [
            GrokPattern.from_string(e, pattern_id=i + 4)
            for i, e in enumerate(
                ["%{WORD:w} %{ANYDATA:rest}", "%{NOTSPACE:a} %{NUMBER:n}"]
            )
        ]
        logs = _cold_logs()
        assert len({log.signature for log in logs}) == len(logs)
        metrics = MetricsRegistry()
        index = PatternIndex(patterns, metrics=metrics)
        snapshots = []
        take_snapshot = index._snapshot

        def counted_snapshot():
            snapshots.append(threading.get_ident())
            take_snapshot()

        index._snapshot = counted_snapshot
        barrier = threading.Barrier(COLD_THREADS)

        def drive(offset):
            barrier.wait(timeout=30)
            for log in logs[offset:] + logs[:offset]:
                index.lookup(log)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=drive, args=(i * 11,))
                for i in range(COLD_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)

        assert len(snapshots) == 1
        assert metrics.counter("index.group_builds").value == len(logs)
        serial = PatternIndex(patterns, metrics=MetricsRegistry())
        groups = [serial.candidate_group(log) for log in logs]
        assert any(groups)
        assert [index.candidate_group(log) for log in logs] == groups


TS_THREADS = 8


def _stamp_windows():
    """Token lists of two formats of different spans, interleaved, each
    stamp repeated so the detector's window memo hits and misses; every
    eleventh window is an impossible date (Feb 30)."""
    windows = []
    for i in range(1200):
        second = i // 4 % 60
        if i % 11 == 0:
            windows.append(["2024/02/30", "10:00:%02d.500" % second, "x"])
        elif i % 2:
            windows.append(
                ["2024/01/01", "10:%02d:%02d.500" % (i // 240, second), "x"]
            )
        else:
            windows.append(["Jan", "2", "11:%02d:%02d" % (i // 240, second)])
    return windows


class TestSharedTimestampDetectorRace:
    def test_threads_get_a_single_threads_answers(self):
        """Eight threads share one detector, each walking the windows
        from its own offset, close enough that they race on the same
        memo slots: every answer equals a one-thread detector's, so no
        thread reads a slot torn by another."""
        windows = _stamp_windows()
        shared = TimestampDetector()
        barrier = threading.Barrier(TS_THREADS)
        answers = {}

        def drive(offset):
            order = windows[offset:] + windows[:offset]
            barrier.wait(timeout=30)
            answers[offset] = [shared.identify(t, 0) for t in order]

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(TS_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)

        assert len(answers) == TS_THREADS
        for offset, got in answers.items():
            single = TimestampDetector()
            order = windows[offset:] + windows[:offset]
            assert got == [single.identify(t, 0) for t in order], offset
        # The stream is what it claims: both formats, and Feb 30 unread.
        assert sum(m is None for m in answers[0]) == len(windows[::11])
        assert {m.format for m in answers[0] if m is not None} == {
            "yyyy/MM/dd HH:mm:ss.SSS", "MMM d HH:mm:ss",
        }


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
                        value=line,
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
