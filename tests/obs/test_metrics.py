"""Unit tests for the observability primitives and registry."""

import json
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_table,
    set_registry,
    timed,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_concurrent_increments_lose_nothing(self):
        c = Counter()
        threads = [
            threading.Thread(
                target=lambda: [c.inc() for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5

    def test_to_dict(self):
        g = Gauge()
        g.set(3)
        assert g.to_dict() == {"type": "gauge", "value": 3.0}


class TestHistogram:
    def test_count_sum_minmax(self):
        h = Histogram(buckets=[1, 2, 4])
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(14.0)
        d = h.to_dict()
        assert d["min"] == 0.5 and d["max"] == 9.0
        assert d["mean"] == pytest.approx(3.5)

    def test_quantiles_on_uniform_data(self):
        # 1000 evenly spaced values in (0, 1] against 100 fine buckets:
        # interpolation should land within one bucket of the truth.
        h = Histogram(buckets=[i / 100 for i in range(1, 101)])
        for i in range(1, 1001):
            h.observe(i / 1000)
        assert h.quantile(0.50) == pytest.approx(0.50, abs=0.02)
        assert h.quantile(0.95) == pytest.approx(0.95, abs=0.02)
        assert h.quantile(0.99) == pytest.approx(0.99, abs=0.02)

    def test_quantile_empty(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_overflow_bucket_capped_at_max(self):
        h = Histogram(buckets=[1.0])
        h.observe(50.0)
        h.observe(70.0)
        assert h.quantile(0.99) <= 70.0

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40
        ),
        buckets=st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6),
                min_size=1, max_size=8,
            ),
        ),
        qs=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
        ),
    )
    # Nine 6 us and one 7 us: the 10 us bucket bound once gave p50 8 us.
    @example(values=[6e-6] * 9 + [7e-6], buckets=None, qs=[0.5, 0.95])
    @settings(max_examples=300, deadline=None)
    def test_quantile_within_observed_range_and_monotone(
        self, values, buckets, qs
    ):
        h = Histogram(buckets=buckets)
        h.observe_many(values)
        estimates = [h.quantile(q) for q in sorted(qs)]
        assert all(min(values) <= e <= max(values) for e in estimates)
        assert estimates == sorted(estimates)

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_timer_context_manager(self):
        h = Histogram()
        with h.time():
            pass
        assert h.count == 1
        assert h.sum >= 0.0

    def test_concurrent_observes(self):
        h = Histogram(buckets=[0.5])

        def spin():
            for _ in range(5_000):
                h.observe(0.1)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 40_000
        assert h.sum == pytest.approx(4_000.0)

    def test_reset(self):
        h = Histogram()
        h.observe(1.0)
        h.reset()
        assert h.count == 0
        assert h.to_dict()["min"] is None


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.counter("x", a="1") is r.counter("x", a="1")
        assert r.counter("x") is not r.counter("x", a="1")

    def test_type_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")

    def test_get_does_not_create(self):
        r = MetricsRegistry()
        assert r.get("nope") is None
        r.counter("yes").inc()
        assert r.get("yes").value == 1

    def test_snapshot_shape_and_labels(self):
        r = MetricsRegistry()
        r.counter("bus.produced", topic="logs").inc(3)
        r.gauge("lag", topic="logs", partition="0").set(7)
        r.histogram("latency").observe(0.02)
        snap = r.to_dict()
        assert snap["bus.produced"] == [
            {"labels": {"topic": "logs"}, "type": "counter", "value": 3}
        ]
        assert snap["lag"][0]["labels"] == {
            "topic": "logs", "partition": "0"
        }
        hist = snap["latency"][0]
        assert hist["count"] == 1
        assert set(hist) >= {"p50", "p95", "p99", "mean", "sum"}
        # The snapshot must be JSON-safe (the service export contract).
        json.dumps(snap)

    def test_reset_keeps_registrations(self):
        r = MetricsRegistry()
        r.counter("c").inc(9)
        r.reset()
        assert r.counter("c").value == 0
        assert r.names() == ["c"]

    def test_global_registry_swap(self):
        mine = MetricsRegistry()
        old = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(old)


class TestTimedDecorator:
    def test_with_histogram_instance(self):
        h = Histogram()

        @timed(h)
        def work():
            return 42

        assert work() == 42
        assert h.count == 1

    def test_with_late_binding_callable(self):
        r = MetricsRegistry()

        @timed(lambda: r.histogram("fn.seconds"))
        def work():
            return "ok"

        work()
        work()
        assert r.histogram("fn.seconds").count == 2

    def test_observes_even_on_exception(self):
        h = Histogram()

        @timed(h)
        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            boom()
        assert h.count == 1


class TestRenderTable:
    def test_renders_all_metric_kinds(self):
        r = MetricsRegistry()
        r.counter("parser.parsed").inc(12)
        r.gauge("bus.consumer_lag", topic="t", partition="0").set(3)
        r.histogram("parser.parse_seconds").observe(0.001)
        text = render_table(r.to_dict())
        assert "parser.parsed" in text
        assert "partition=0,topic=t" in text
        assert "p95" in text
        # Aligned table: every line has the header's column count.
        assert text.splitlines()[0].startswith("metric")
