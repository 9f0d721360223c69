"""Unit tests for the timestamp-identification baselines."""

from repro.baselines.naive_timestamp import (
    LinearScanTimestampDetector,
    make_cache_only_detector,
    make_filter_only_detector,
    make_linear_scan_detector,
    make_optimized_detector,
)
from repro.datasets.corpora import generate_d5
from repro.parsing.tokenizer import Tokenizer


class TestConfigurations:
    def test_factory_switches(self):
        cache_only = make_cache_only_detector()
        assert cache_only.use_cache and not cache_only.use_filter
        filter_only = make_filter_only_detector()
        assert filter_only.use_filter and not filter_only.use_cache
        both = make_optimized_detector()
        assert both.use_cache and both.use_filter

    def test_linear_detector_type(self):
        assert isinstance(
            make_linear_scan_detector(), LinearScanTimestampDetector
        )


class TestLinearScan:
    def test_identifies_same_timestamps(self):
        linear = make_linear_scan_detector()
        optimised = make_optimized_detector()
        samples = [
            ["2016/02/23", "09:00:31", "up"],
            ["Feb", "23,", "2016", "09:00:31"],
            ["1456218031"],
            ["plainword"],
            ["10.0.0.1"],
        ]
        for tokens in samples:
            a = linear.identify(tokens, 0)
            b = optimised.identify(tokens, 0)
            assert (a is None) == (b is None), tokens
            if a is not None:
                assert a.normalized == b.normalized

    def test_linear_scan_tries_many_formats(self):
        # syslog format sits deep in the knowledge base: the flat scan
        # pays for every earlier format, the warm cache resolves in one.
        tokens = ["Feb", "3", "09:00:31"]
        linear = make_linear_scan_detector()
        optimised = make_optimized_detector()
        optimised.identify(tokens, 0)  # warm the cache
        optimised.stats.reset()
        for det in (linear, optimised):
            det.identify(tokens, 0)
        assert optimised.stats.formats_tried == 1
        assert linear.stats.formats_tried > 10

    def test_linear_scan_invalid_date_continues(self):
        linear = make_linear_scan_detector()
        assert linear.identify(["2016/02/31", "09:00:31"], 0) is None

    def test_out_of_range_start(self):
        assert make_linear_scan_detector().identify(["a"], 5) is None


class TestThroughTheTokenizer:
    def test_naive_scan_stays_naive(self):
        """The tokenizer reaches the baseline's own lookup on every token
        it visits: one lookup per output token, and the same output as
        the optimised tokenizer."""
        lines = generate_d5(n_logs=4000).train[:500]
        linear = make_linear_scan_detector()
        naive = Tokenizer(timestamp_detector=linear).tokenize_many(lines)
        fast = Tokenizer(
            timestamp_detector=make_optimized_detector()
        ).tokenize_many(lines)
        assert naive == fast
        assert linear.stats.lookups == sum(len(log.texts) for log in naive)
        # The same scan driven by hand, token by token, does the same work.
        reference = make_linear_scan_detector()
        for line in lines:
            tokens = line.split()
            i = 0
            while i < len(tokens):
                match = reference.identify(tokens, i)
                i += match.tokens_consumed if match is not None else 1
        assert linear.stats == reference.stats
