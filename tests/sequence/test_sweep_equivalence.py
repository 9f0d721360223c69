"""Heap-scheduled sweep == linear-scan sweep, on randomized streams.

The expiry min-heap is an optimization of ``_sweep`` only: for any
interleaving of logs and heartbeats, the detector must emit exactly the
same anomalies, in the same order, with the same stats as
:class:`LinearSweepDetector`, the full-scan oracle defined here —
including across snapshot/restore round-trips and model swaps.
"""

import random

from repro.parsing.parser import ParsedLog
from repro.sequence.automata import Automaton, StateRule
from repro.sequence.detector import LogSequenceDetector
from repro.sequence.model import SequenceModel


class LinearSweepDetector(LogSequenceDetector):
    """The original full-scan sweep: every open event is checked against
    its automaton's expiry window on every heartbeat."""

    def _sweep(self, now_millis):
        anomalies = []
        for key in list(self._open):
            event = self._open[key]
            automaton = self._model.get(event.automaton_id)
            reference = (
                event.last_time
                if event.last_time is not None
                else now_millis
            )
            if now_millis - reference > self._expiry_window(automaton):
                del self._open[key]
                self._forget(key)
                self.stats.events_expired += 1
                anomaly = self._validate(automaton, event, expired=True)
                if anomaly is not None:
                    anomalies.append(anomaly)
        return anomalies


def plog(pattern_id, eid, ts):
    return ParsedLog(
        raw="raw p%d %s" % (pattern_id, eid),
        pattern_id=pattern_id,
        fields={"id": eid},
        timestamp_millis=ts,
    )


def two_automata_model():
    """Two automata with very different expiry windows."""
    fast = Automaton(
        automaton_id=1,
        id_fields={1: "id", 2: "id"},
        begin_states=frozenset({1}),
        end_states=frozenset({2}),
        states={1: StateRule(1, 1, 1), 2: StateRule(2, 1, 1)},
        min_duration_millis=0,
        max_duration_millis=1_000,
    )
    slow = Automaton(
        automaton_id=2,
        id_fields={3: "id", 4: "id"},
        begin_states=frozenset({3}),
        end_states=frozenset({4}),
        states={3: StateRule(3, 1, 1), 4: StateRule(4, 1, 1)},
        min_duration_millis=0,
        max_duration_millis=10_000,
    )
    return SequenceModel([fast, slow])


def anomaly_fingerprint(anomaly):
    return (
        anomaly.type,
        anomaly.reason,
        anomaly.timestamp_millis,
        anomaly.details["automaton_id"],
        anomaly.details["event_id"],
        tuple(anomaly.logs),
    )


def random_stream(seed, n_steps=400):
    """A shuffled mix of begins, ends, and heartbeat ticks."""
    rng = random.Random(seed)
    clock = 0
    stream = []
    open_ids = []
    for i in range(n_steps):
        clock += rng.randrange(0, 700)
        roll = rng.random()
        if roll < 0.45:
            eid = "ev-%d" % i
            begin = rng.choice([1, 3])
            stream.append(("log", plog(begin, eid, clock)))
            open_ids.append((begin + 1, eid))
        elif roll < 0.6 and open_ids:
            end, eid = open_ids.pop(rng.randrange(len(open_ids)))
            stream.append(("log", plog(end, eid, clock)))
        else:
            stream.append(("heartbeat", clock))
    stream.append(("heartbeat", clock + 50_000))
    return stream


def drive(detector, stream):
    out = []
    for kind, payload in stream:
        if kind == "log":
            out.extend(detector.process(payload))
        else:
            out.extend(detector.process_heartbeat(payload))
    return out


def assert_equivalent(heap_anomalies, linear_anomalies, heap, linear):
    assert [anomaly_fingerprint(a) for a in heap_anomalies] == [
        anomaly_fingerprint(a) for a in linear_anomalies
    ]
    assert list(heap.get_parent_state_map()) == list(
        linear.get_parent_state_map()
    )
    assert heap.stats == linear.stats


class TestHeapEqualsLinear:
    def test_randomized_streams(self):
        for seed in range(6):
            stream = random_stream(seed)
            heap = LogSequenceDetector(two_automata_model())
            linear = LinearSweepDetector(two_automata_model())
            assert_equivalent(
                drive(heap, stream), drive(linear, stream), heap, linear
            )

    def test_same_deadline_keeps_open_order(self):
        """Events expiring on one heartbeat come out in open-map order."""
        model = two_automata_model()
        heap = LogSequenceDetector(model)
        linear = LinearSweepDetector(model)
        for det in (heap, linear):
            # Same timestamp => same deadline; insertion order differs
            # from key order on purpose.
            for eid in ("z", "a", "m"):
                det.process(plog(1, eid, 1000))
        heap_out = heap.process_heartbeat(10_000)
        linear_out = linear.process_heartbeat(10_000)
        assert [a.details["event_id"] for a in heap_out] == ["z", "a", "m"]
        assert_equivalent(heap_out, linear_out, heap, linear)

    def test_touched_event_is_rescheduled(self):
        """A later log pushes the deadline out; the stale entry is inert."""
        model = two_automata_model()
        heap = LogSequenceDetector(model)
        linear = LinearSweepDetector(model)
        for det in (heap, linear):
            det.process(plog(1, "e", 0))
            det.process(plog(1, "e", 1_900))  # touch: new deadline
        # Old deadline (0 + 2000) has passed, new one (1900+2000) not.
        assert heap.process_heartbeat(2_500) == []
        assert linear.process_heartbeat(2_500) == []
        assert_equivalent(
            heap.process_heartbeat(4_000),
            linear.process_heartbeat(4_000),
            heap,
            linear,
        )

    def test_equivalence_across_snapshot_restore(self):
        for seed in (10, 11):
            stream = random_stream(seed)
            cut = len(stream) // 2
            heap = LogSequenceDetector(two_automata_model())
            linear = LinearSweepDetector(two_automata_model())
            heap_out = drive(heap, stream[:cut])
            linear_out = drive(linear, stream[:cut])
            # Restore both from the *heap* detector's snapshot: the
            # checkpoint format is strategy-independent.
            snap = heap.snapshot()
            assert snap == linear.snapshot()
            heap2 = LogSequenceDetector.restore(snap, two_automata_model())
            linear2 = LinearSweepDetector.restore(
                snap, two_automata_model()
            )
            assert type(linear2) is LinearSweepDetector
            heap_out += drive(heap2, stream[cut:])
            linear_out += drive(linear2, stream[cut:])
            assert_equivalent(heap_out, linear_out, heap2, linear2)

    def test_equivalence_across_model_swap(self):
        stream = random_stream(21)
        cut = len(stream) // 2
        # The swapped-in model keeps only the slow automaton, and halves
        # its window — surviving deadlines must be recomputed.
        shrunk = SequenceModel(
            [
                Automaton(
                    automaton_id=2,
                    id_fields={3: "id", 4: "id"},
                    begin_states=frozenset({3}),
                    end_states=frozenset({4}),
                    states={3: StateRule(3, 1, 1), 4: StateRule(4, 1, 1)},
                    min_duration_millis=0,
                    max_duration_millis=5_000,
                )
            ]
        )
        heap = LogSequenceDetector(two_automata_model())
        linear = LinearSweepDetector(two_automata_model())
        heap_out = drive(heap, stream[:cut])
        linear_out = drive(linear, stream[:cut])
        heap.model = shrunk
        linear.model = shrunk
        heap_out += drive(heap, stream[cut:])
        linear_out += drive(linear, stream[cut:])
        assert_equivalent(heap_out, linear_out, heap, linear)

    def test_heap_compacts_stale_entries(self):
        """Repeated touches cannot grow the heap without bound."""
        model = two_automata_model()
        heap = LogSequenceDetector(model)
        heap.process(plog(3, "only", 0))
        for i in range(1, 2000):
            heap.process(plog(3, "only", i * 10))
        assert heap.open_event_count == 1
        assert heap.expiry_heap_depth <= 64
