"""Section VI-A — fast timestamp identification.

Paper: combining caching and filtering identifies timestamps up to 22x
faster than a linear scan over the 89-format knowledge base, with 19.4x
contributed by caching.

Two workloads reproduce the two regimes:

* ``timestamp_heavy`` — genuine timestamps whose format sits deep in the
  knowledge base (where the *cache* pays: one attempt vs. a long scan);
* ``mixed`` — realistic logs where most tokens are not timestamps (where
  the *filter* pays: cheap rejection before any regex runs).
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import report
from repro.baselines.naive_timestamp import (
    make_cache_only_detector,
    make_filter_only_detector,
    make_linear_scan_detector,
    make_optimized_detector,
)
from repro.datasets.corpora import generate_d5
from repro.parsing.tokenizer import Tokenizer

_CONFIGS = {
    "linear_scan": make_linear_scan_detector,
    "cache_only": make_cache_only_detector,
    "filter_only": make_filter_only_detector,
    "cache_and_filter": make_optimized_detector,
}
#: Interleaved rounds of the summary; one round timed each configuration
#: once, and twelve such runs spread the filter-only ratio 2.1-5.0x.
_ROUNDS = 5


def _timestamp_heavy_workload(n=6000):
    """syslog-format timestamps: index ~70 of 89 in the knowledge base."""
    rng = random.Random(5)
    return [
        [
            rng.choice(["Jan", "Feb", "Oct", "Dec"]),
            str(rng.randint(1, 28)),
            "%02d:%02d:%02d" % (
                rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59)
            ),
            "kernel:",
            "message",
        ]
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def mixed_lines():
    return generate_d5(n_logs=4000).train


@pytest.mark.parametrize("config", list(_CONFIGS))
def test_timestamp_heavy(benchmark, config):
    samples = _timestamp_heavy_workload()

    def run():
        detector = _CONFIGS[config]()
        matched = 0
        for tokens in samples:
            matched += detector.identify(tokens, 0) is not None
        return matched

    matched = benchmark.pedantic(run, rounds=3, iterations=1)
    assert matched == len(samples)


@pytest.mark.parametrize("config", list(_CONFIGS))
def test_mixed_workload(benchmark, mixed_lines, config):
    def run():
        tokenizer = Tokenizer(timestamp_detector=_CONFIGS[config]())
        with_ts = 0
        for line in mixed_lines:
            log = tokenizer.tokenize(line)
            with_ts += log.timestamp_millis is not None
        return with_ts

    with_ts = benchmark.pedantic(run, rounds=3, iterations=1)
    assert with_ts == len(mixed_lines)


def test_speedup_summary(mixed_lines):
    """Non-benchmark summary: measured ratios vs. the paper's claims.

    The four configurations take turns, one pass each per round with a
    fresh detector, over ``_ROUNDS`` rounds, so a slow spell of the host
    falls on all of them alike.  A configuration's time is its fastest
    round; each ratio is printed with its range over the rounds (the
    linear scan's pass against the configuration's, round by round).
    """
    samples = _timestamp_heavy_workload()
    rounds = {name: [] for name in _CONFIGS}
    for _ in range(_ROUNDS):
        for name, factory in _CONFIGS.items():
            detector = factory()
            started = time.perf_counter()
            for tokens in samples:
                detector.identify(tokens, 0)
            rounds[name].append(time.perf_counter() - started)
    times = {name: min(seconds) for name, seconds in rounds.items()}
    base = times["linear_scan"]

    def ratio(name):
        per_round = [
            scan / own
            for scan, own in zip(rounds["linear_scan"], rounds[name])
        ]
        return "%.1fx (rounds %.1f-%.1fx)" % (
            base / times[name], min(per_round), max(per_round)
        )

    report(
        "Section VI-A timestamp identification (timestamp-heavy)",
        {
            "paper": "up to 22x combined; 19.4x from caching",
            "rounds": "%d, interleaved; best round each" % _ROUNDS,
            "cache_only": ratio("cache_only"),
            "filter_only": ratio("filter_only"),
            "cache_and_filter": ratio("cache_and_filter"),
        },
    )
    assert times["cache_and_filter"] < base
    assert times["cache_only"] < base
