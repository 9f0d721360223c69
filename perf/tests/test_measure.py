"""Estimators on synthetic samples."""

import pytest

import measure


def test_one_contaminated_round_leaves_the_minimum_unchanged():
    clean = [0.010 + 0.001 * (i % 5) for i in range(200)]
    rounds = [list(clean) for _ in range(4)]
    baseline = measure.min_across_rounds(rounds)
    # A noisy spell covers all of round 2 and a burst hits round 0.
    rounds[2] = [value * 1.8 for value in rounds[2]]
    for i in range(50, 70):
        rounds[0][i] += 0.030
    assert measure.min_across_rounds(rounds) == baseline
    assert sum(baseline) == pytest.approx(sum(clean))


def test_rounds_must_replay_the_same_work():
    with pytest.raises(ValueError):
        measure.min_across_rounds([[1.0, 2.0], [1.0]])


def test_normalise_cancels_a_host_slowdown():
    samples = [0.020] * 50
    quiet = [measure.CAL_REF_SECONDS] * 51
    slow_samples = [value * 1.5 for value in samples]
    slow = [value * 1.5 for value in quiet]
    assert measure.normalise(slow_samples, slow) == pytest.approx(
        measure.normalise(samples, quiet)
    )
    assert measure.normalise(samples, quiet) == pytest.approx(samples)


def test_one_disturbed_calibration_does_not_move_its_neighbours():
    cal = [measure.CAL_REF_SECONDS] * 21
    cal[10] *= 3  # a timer interrupt inside one kernel run
    assert measure.speeds(cal) == pytest.approx([1.0] * 20)


def test_normalise_needs_a_calibration_either_side():
    with pytest.raises(ValueError):
        measure.normalise([1.0, 2.0], [1.0, 1.0])


def test_percentiles_are_nearest_rank():
    values = list(range(1, 201))
    assert measure.percentile(values, 50) == 100
    assert measure.percentile(values, 95) == 190
    assert measure.percentile([3.0], 95) == 3.0


def test_calibration_kernel_takes_measurable_time():
    assert measure.calibrate() > 0
