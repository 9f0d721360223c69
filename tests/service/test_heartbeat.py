"""Unit tests for the external heartbeat controller (Section V-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.heartbeat import HeartbeatController
from repro.streaming.records import StreamRecord


class TestObservation:
    def test_no_heartbeat_before_any_log(self):
        hb = HeartbeatController()
        assert hb.tick() == []

    def test_heartbeat_after_observation(self):
        hb = HeartbeatController()
        hb.observe("src", 10_000)
        [record] = hb.tick()
        assert record.is_heartbeat
        assert record.source == "src"
        assert record.timestamp_millis > 10_000

    def test_rate_estimation(self):
        hb = HeartbeatController(ewma_alpha=1.0)  # newest gap wins
        hb.observe("src", 0)
        hb.observe("src", 2_000)
        [record] = hb.tick()
        # Extrapolates one 2000ms gap past the last observed log time.
        assert record.timestamp_millis == 4_000

    def test_silent_ticks_keep_advancing(self):
        """Log time progresses while the source is quiet (paper's fix)."""
        hb = HeartbeatController(ewma_alpha=1.0)
        hb.observe("src", 0)
        hb.observe("src", 1_000)
        ts = [hb.tick()[0].timestamp_millis for _ in range(3)]
        assert ts == [2_000, 3_000, 4_000]

    def test_new_log_resets_silence(self):
        hb = HeartbeatController(ewma_alpha=1.0)
        hb.observe("src", 0)
        hb.observe("src", 1_000)
        hb.tick()
        hb.tick()
        hb.observe("src", 5_000)
        [record] = hb.tick()
        assert record.timestamp_millis == 5_000 + 4_000  # new gap EWMA

    def test_default_gap_before_estimate(self):
        hb = HeartbeatController(default_gap_millis=500)
        hb.observe("src", 10_000)
        [record] = hb.tick()
        assert record.timestamp_millis == 10_500

    def test_out_of_order_timestamps_keep_max(self):
        hb = HeartbeatController()
        hb.observe("src", 5_000)
        hb.observe("src", 3_000)  # late arrival
        [record] = hb.tick()
        assert record.timestamp_millis > 5_000

    def test_observation_without_timestamp(self):
        hb = HeartbeatController()
        hb.observe("src", None)
        assert hb.tick() == []  # no log time known yet


class TestSources:
    def test_per_source_heartbeats(self):
        hb = HeartbeatController()
        hb.observe("a", 1_000)
        hb.observe("b", 2_000)
        records = hb.tick()
        assert sorted(r.source for r in records) == ["a", "b"]
        assert hb.sources() == ["a", "b"]

    def test_estimated_time(self):
        hb = HeartbeatController(ewma_alpha=1.0)
        assert hb.estimated_time("unknown") is None
        hb.observe("a", 0)
        hb.observe("a", 1_000)
        hb.tick()
        assert hb.estimated_time("a") == 2_000

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            HeartbeatController(ewma_alpha=0)
        with pytest.raises(ValueError):
            HeartbeatController(ewma_alpha=1.5)


# A bucket of parsed records: interleaved sources (``None`` included)
# with missing, repeated and backwards timestamps.
_records = st.lists(
    st.builds(
        lambda source, ts: StreamRecord(
            value=None, source=source, timestamp_millis=ts
        ),
        st.sampled_from(["a", "b", "c", "unknown", None]),
        st.one_of(
            st.none(),
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=10 ** 13),
        ),
    ),
    max_size=30,
)


class TestBucketObservation:
    """``observe_records`` (one call per bucket) leaves the controller
    exactly where one ``observe`` call per record does."""

    @settings(max_examples=300, deadline=None)
    @given(
        buckets=st.lists(st.tuples(_records, st.booleans()), max_size=6),
        alpha=st.sampled_from([0.3, 1.0, 0.17, 0.5]),
    )
    def test_bucket_call_matches_per_line_observe(self, buckets, alpha):
        per_bucket = HeartbeatController(ewma_alpha=alpha)
        per_line = HeartbeatController(ewma_alpha=alpha)
        for records, tick in buckets:
            per_bucket.observe_records(records)
            for record in records:
                per_line.observe(
                    record.source or "unknown", record.timestamp_millis
                )
            assert per_bucket.snapshot() == per_line.snapshot()
            assert list(per_bucket.snapshot()) == list(per_line.snapshot())
            for source in per_line.sources():
                assert per_bucket.estimated_time(source) == (
                    per_line.estimated_time(source)
                )
            if tick:
                assert [
                    (r.source, r.timestamp_millis)
                    for r in per_bucket.tick()
                ] == [
                    (r.source, r.timestamp_millis) for r in per_line.tick()
                ]

    def test_empty_bucket_touches_nothing(self):
        hb = HeartbeatController()
        hb.observe("a", 1_000)
        hb.tick()
        before = hb.snapshot()
        hb.observe_records([])
        assert hb.snapshot() == before
