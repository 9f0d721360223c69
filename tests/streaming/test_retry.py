"""Unit tests for RetryPolicy backoff math."""

import pytest

from repro.faults import ManualClock
from repro.streaming import RetryPolicy


class TestBackoffSchedule:
    def test_exponential_sequence(self):
        policy = RetryPolicy(
            base_delay_seconds=0.1, backoff_multiplier=2.0,
            max_delay_seconds=100.0,
        )
        assert [policy.delay_for(k) for k in (1, 2, 3, 4)] == [
            pytest.approx(0.1), pytest.approx(0.2),
            pytest.approx(0.4), pytest.approx(0.8),
        ]

    def test_cap_at_max_delay(self):
        policy = RetryPolicy(
            base_delay_seconds=1.0, backoff_multiplier=10.0,
            max_delay_seconds=5.0,
        )
        assert policy.delay_for(3) == 5.0

    def test_jitter_hook_is_deterministic_and_applied(self):
        calls = []

        def jitter(attempt, delay):
            calls.append((attempt, delay))
            return delay / 2

        policy = RetryPolicy(base_delay_seconds=0.2, jitter=jitter)
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert calls == [(1, pytest.approx(0.2))]

    def test_negative_jitter_clamped_to_zero(self):
        policy = RetryPolicy(
            base_delay_seconds=0.2, jitter=lambda a, d: -1.0
        )
        assert policy.delay_for(1) == 0.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)

    def test_no_wait_constructor(self):
        policy = RetryPolicy.no_wait(max_attempts=5)
        assert policy.max_attempts == 5
        assert policy.delay_for(1) == 0.0
        assert policy.delay_for(7) == 0.0


class TestValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_accepts_injected_clock(self):
        clock = ManualClock()
        policy = RetryPolicy(clock=clock)
        assert policy.clock is clock
