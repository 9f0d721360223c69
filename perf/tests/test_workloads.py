"""Generators: a seed fixes the bytes; another seed changes them."""

import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    first = workloads.generate(name, 7, 12)
    again = workloads.generate(name, 7, 12)
    other = workloads.generate(name, 8, 12)
    assert first.train == again.train
    assert first.stream == again.stream
    assert first.injected == again.injected
    assert first.stream != other.stream
    assert first.train != other.train


def test_socket_ships_the_events_lines():
    events = workloads.generate("events", 11, 12)
    socket = workloads.generate("socket", 11, 12)
    assert events.stream == socket.stream
    assert events.train == socket.train


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stream_is_sized_for_the_timed_samples(name):
    batch_lines, warmup_batches = workloads.SHAPES[name]
    stream = workloads.generate(name, 7, 12).stream
    timed = len(workloads.batches(stream, batch_lines)) - warmup_batches
    # Line counts per event are random, so the count is near, not at,
    # the floor; the seed must not change the amount of work by much.
    assert abs(timed - workloads.MIN_TIMED_BATCHES) <= 4


def test_seconds_scale_the_work_but_never_below_the_floor():
    assert workloads.timed_batches_for(1) == workloads.MIN_TIMED_BATCHES
    assert workloads.timed_batches_for(24) == 2 * workloads.MIN_TIMED_BATCHES


def test_formats_interleaves_four_sources_in_every_batch():
    workload = workloads.generate("formats", 5, 12)
    batch_lines, _ = workloads.SHAPES["formats"]
    for batch in workloads.batches(workload.stream, batch_lines):
        assert sorted(source for source, _ in batch) == [
            "fmt0", "fmt1", "fmt2", "fmt3",
        ]
    assert workload.stateless


def test_stream_file_round_trip(tmp_path):
    workload = workloads.generate("durable", 9, 12)
    paths = workloads.write_workload(workload, str(tmp_path))
    assert workloads.read_train(paths["train"]) == workload.train
    assert workloads.read_stream(paths["stream"]) == workload.stream
