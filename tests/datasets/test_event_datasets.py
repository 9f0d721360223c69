"""Unit tests for the event-structured datasets (D1, D2, SS7)."""

from collections import Counter

from repro.datasets.base import (
    EventStreamGenerator,
    StateSpec,
    WorkflowSpec,
)
from repro.datasets.ss7 import generate_ss7
from repro.datasets.synthetic import D2_ANOMALY_PLAN, generate_d2
from repro.datasets.trace import D1_ANOMALY_PLAN, generate_d1


def tiny_workflow():
    return WorkflowSpec(
        name="w",
        begin=StateSpec("{ts} OPEN item {eid}"),
        middles=[StateSpec("{ts} work item {eid} step", repeat=(1, 2))],
        end=StateSpec("{ts} DONE item {eid} ok"),
        gap_choices_millis=(100, 200),
    )


class TestEventGenerator:
    def test_normal_event_shape(self):
        gen = EventStreamGenerator(seed=1)
        lines, eid = gen.generate_event(tiny_workflow(), 0)
        assert lines[0][1].startswith("1970/01/01")
        assert "OPEN" in lines[0][1]
        assert "DONE" in lines[-1][1]
        assert eid in lines[0][1]

    def test_missing_end_drops_last_line(self):
        gen = EventStreamGenerator(seed=1)
        lines, _ = gen.generate_event(
            tiny_workflow(), 0, anomaly="missing_end"
        )
        assert all("DONE" not in line for _, line in lines)

    def test_missing_begin_drops_first_line(self):
        gen = EventStreamGenerator(seed=1)
        lines, _ = gen.generate_event(
            tiny_workflow(), 0, anomaly="missing_begin"
        )
        assert all("OPEN" not in line for _, line in lines)

    def test_occurrence_violation_adds_repeats(self):
        gen = EventStreamGenerator(seed=1)
        lines, _ = gen.generate_event(
            tiny_workflow(), 0, anomaly="occurrence_violation"
        )
        middles = [line for _, line in lines if "work" in line]
        assert len(middles) == 4  # max repeat (2) + 2

    def test_duration_violation_is_late_but_within_expiry(self):
        gen = EventStreamGenerator(seed=1)
        lines, _ = gen.generate_event(
            tiny_workflow(), 0, anomaly="duration_violation"
        )
        duration = lines[-1][0] - lines[0][0]
        est_max = (2 + 1) * 200
        assert duration > est_max          # violates the learned bound
        assert duration < 2 * est_max      # inside the expiry window

    def test_unknown_anomaly_kind(self):
        gen = EventStreamGenerator(seed=1)
        try:
            gen.generate_event(tiny_workflow(), 0, anomaly="nope")
            assert False
        except ValueError:
            pass

    def test_stream_is_time_sorted(self):
        gen = EventStreamGenerator(seed=1)
        lines, _ = gen.generate_stream([tiny_workflow()], 20, 0)
        stamps = [line[:23] for line in lines]
        assert stamps == sorted(stamps)

    def test_stream_anomaly_ground_truth(self):
        gen = EventStreamGenerator(seed=1)
        _, injected = gen.generate_stream(
            [tiny_workflow()],
            10,
            0,
            anomalies={"w": ["missing_end", "occurrence_violation"]},
        )
        assert len(injected) == 2
        kinds = sorted(a.kind for a in injected)
        assert kinds == ["missing_end", "occurrence_violation"]
        assert sum(a.needs_heartbeat for a in injected) == 1

    def test_too_many_anomalies_raises(self):
        gen = EventStreamGenerator(seed=1)
        try:
            gen.generate_stream(
                [tiny_workflow()], 1, 0,
                anomalies={"w": ["missing_end"] * 2},
            )
            assert False
        except ValueError:
            pass

    def test_unique_event_ids(self):
        gen = EventStreamGenerator(seed=1)
        ids = set()
        for _ in range(50):
            _, eid = gen.generate_event(tiny_workflow(), 0)
            assert eid not in ids
            ids.add(eid)


class TestD1:
    def test_counts_match_paper(self):
        ds = generate_d1(events_per_workflow=40)
        assert ds.total_anomalies == 21
        assert sum(a.needs_heartbeat for a in ds.injected) == 1
        by_workflow = Counter(a.workflow for a in ds.injected)
        assert by_workflow["vm-provision"] == 13
        assert by_workflow["volume-attach"] == 8

    def test_plan_sums(self):
        assert sum(len(v) for v in D1_ANOMALY_PLAN.values()) == 21

    def test_deterministic(self):
        a = generate_d1(events_per_workflow=40, seed=3)
        b = generate_d1(events_per_workflow=40, seed=3)
        assert a.train == b.train
        assert a.test == b.test

    def test_paper_scale_log_counts(self):
        ds = generate_d1()  # default events_per_workflow
        # Paper: 16,000 training and 16,000 testing logs (approximate).
        assert 12_000 <= len(ds.train) <= 20_000
        assert 12_000 <= len(ds.test) <= 20_000


class TestD2:
    def test_counts_match_paper(self):
        ds = generate_d2(events_per_workflow=40)
        assert ds.total_anomalies == 13
        assert sum(a.needs_heartbeat for a in ds.injected) == 3
        assert Counter(a.workflow for a in ds.injected)["user-session"] == 4

    def test_plan_sums(self):
        assert sum(len(v) for v in D2_ANOMALY_PLAN.values()) == 13

    def test_three_workflows(self):
        ds = generate_d2(events_per_workflow=10)
        assert len(ds.workflows) == 3


class TestSS7:
    def test_attack_counts(self):
        ds = generate_ss7(
            train_events=50, test_normal_events=30, attack_count=20,
            n_clusters=4,
        )
        assert ds.attack_count == 20
        assert len(ds.cluster_windows) == 4
        assert all(a.needs_heartbeat for a in ds.injected)

    def test_attacks_fall_inside_cluster_windows(self):
        ds = generate_ss7(
            train_events=20, test_normal_events=10, attack_count=8,
            n_clusters=2,
        )
        # Attack lines lack the UpdateLocation end state by construction.
        attack_lines = [
            l for l in ds.test if "InvokePurgeMs" in l
        ]
        assert attack_lines  # begin states present

    def test_test_stream_sorted(self):
        ds = generate_ss7(
            train_events=20, test_normal_events=20, attack_count=10
        )
        stamps = [l[:23] for l in ds.test]
        assert stamps == sorted(stamps)

    def test_train_has_no_attacks(self):
        ds = generate_ss7(train_events=30, test_normal_events=5,
                          attack_count=3)
        # Every train event ends with InvokeUpdateLocation: counts match.
        begins = sum("InvokePurgeMs" in l for l in ds.train)
        ends = sum("InvokeUpdateLocation" in l for l in ds.train)
        assert begins == ends == 30
