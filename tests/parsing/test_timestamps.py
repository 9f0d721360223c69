"""Unit tests for timestamp identification and unification."""

import pytest

from repro.parsing.timestamps import (
    CANONICAL_FORMAT,
    TimestampDetector,
    TimestampFormat,
    build_default_formats,
    format_epoch_millis,
    parse_canonical,
)


class TestKnowledgeBase:
    def test_exactly_89_default_formats(self):
        """The paper ships 89 predefined formats (Section VI-A)."""
        assert len(build_default_formats()) == 89

    def test_no_duplicates(self):
        formats = build_default_formats()
        assert len(set(formats)) == len(formats)

    def test_canonical_format_is_in_base(self):
        assert CANONICAL_FORMAT in build_default_formats()


class TestFormatMatching:
    @pytest.mark.parametrize(
        "sdf, text",
        [
            ("yyyy/MM/dd HH:mm:ss", "2016/02/23 09:00:31"),
            ("yyyy/MM/dd HH:mm:ss.SSS", "2016/02/23 09:00:31.000"),
            ("yyyy-MM-dd'T'HH:mm:ss", "2016-02-23T09:00:31"),
            ("MMM dd, yyyy HH:mm:ss", "Feb 23, 2016 09:00:31"),
            ("MMM dd yyyy HH:mm:ss", "Feb 23 2016 09:00:31"),
            ("dd/MMM/yyyy:HH:mm:ss", "23/Feb/2016:09:00:31"),
            ("MM/dd/yyyy HH:mm:ss", "02/23/2016 09:00:31"),
            ("MM-dd-yyyy HH:mm:ss", "02-23-2016 09:00:31"),
            ("EEE MMM dd HH:mm:ss yyyy", "Tue Feb 23 09:00:31 2016"),
            ("MMM d HH:mm:ss", "Feb 3 09:00:31"),
        ],
    )
    def test_paper_examples_match(self, sdf, text):
        """The heterogeneous renderings of Section III-A2 all match."""
        assert TimestampFormat(sdf).match(text) is not None

    def test_case_insensitive_month(self):
        assert TimestampFormat("MMM dd yyyy HH:mm:ss").match(
            "FEB 23 2016 09:00:31"
        ) is not None

    def test_token_span(self):
        assert TimestampFormat("yyyy/MM/dd HH:mm:ss").token_span == 2
        assert TimestampFormat("HH:mm:ss").token_span == 1
        assert TimestampFormat("EEE MMM dd HH:mm:ss yyyy").token_span == 5
        assert TimestampFormat("yyyy-MM-dd'T'HH:mm:ss").token_span == 1

    def test_epoch_seconds(self):
        fmt = TimestampFormat("EPOCH_SECONDS")
        assert fmt.match("1456218031") is not None
        assert fmt.match("123") is None

    def test_epoch_millis(self):
        fmt = TimestampFormat("EPOCH_MILLIS")
        assert fmt.match("1456218031000") is not None

    def test_required_separators(self):
        fmt = TimestampFormat("yyyy-MM-dd'T'HH:mm:ss")
        assert fmt.required_separators == frozenset({"-", ":"})
        assert TimestampFormat("EPOCH_SECONDS").required_separators \
            == frozenset()


class TestDetector:
    def setup_method(self):
        self.detector = TimestampDetector()

    def test_identify_canonical(self):
        tokens = ["2016/02/23", "09:00:31.000", "x"]
        match = self.detector.identify(tokens, 0)
        assert match is not None
        assert match.normalized == "2016/02/23 09:00:31.000"
        assert match.tokens_consumed == 2

    def test_unification_across_formats(self):
        """Section III-A2: many renderings, one canonical output."""
        renderings = [
            ["2016/02/23", "09:00:31"],
            ["Feb", "23,", "2016", "09:00:31"],
            ["2016", "Feb", "23", "09:00:31"],
            ["02/23/2016", "09:00:31"],
            ["02-23-2016", "09:00:31"],
        ]
        outputs = set()
        for tokens in renderings:
            match = self.detector.identify(tokens, 0)
            assert match is not None, tokens
            outputs.add(match.normalized)
        assert outputs == {"2016/02/23 09:00:31.000"}

    def test_epoch_millis_consistency(self):
        tokens = ["2016/02/23", "09:00:31.500"]
        match = self.detector.identify(tokens, 0)
        assert match is not None
        assert format_epoch_millis(match.epoch_millis) \
            == "2016/02/23 09:00:31.500"

    def test_non_timestamp_tokens(self):
        for tokens in (["hello"], ["abc123"], ["--flag"], [""]):
            assert self.detector.identify(tokens, 0) is None

    def test_number_is_not_a_timestamp(self):
        assert self.detector.identify(["12345"], 0) is None

    def test_ip_is_not_a_timestamp(self):
        assert self.detector.identify(["10.1.2.3"], 0) is None

    def test_invalid_civil_date_rejected(self):
        # Feb 31 matches the regex shape but is not a real date.
        assert self.detector.identify(["2016/02/31", "09:00:31"], 0) is None

    def test_leap_year(self):
        assert self.detector.identify(["2016/02/29", "09:00:31"], 0) \
            is not None
        assert self.detector.identify(["2015/02/29", "09:00:31"], 0) is None

    def test_start_offset(self):
        tokens = ["word", "2016/02/23", "09:00:31"]
        assert self.detector.identify(tokens, 0) is None
        match = self.detector.identify(tokens, 1)
        assert match is not None

    def test_widest_span_preferred(self):
        # "2016/02/23 09:00:31" must consume both tokens, not just a date.
        match = self.detector.identify(["2016/02/23", "09:00:31"], 0)
        assert match is not None
        assert match.tokens_consumed == 2

    def test_out_of_range_start(self):
        assert self.detector.identify(["a"], 5) is None

    def test_user_format_extension(self):
        detector = TimestampDetector(formats=["yyyy/MM/dd HH:mm:ss"])
        assert detector.identify(["23|02|2016", "09:00:31"], 0) is None
        detector.add_format("dd|MM|yyyy HH:mm:ss")
        match = detector.identify(["23|02|2016", "09:00:31"], 0)
        assert match is not None
        assert match.normalized == "2016/02/23 09:00:31.000"

    def test_default_year_for_yearless_formats(self):
        detector = TimestampDetector(default_year=2020)
        match = detector.identify(["Feb", "23", "09:00:31"], 0)
        assert match is not None
        assert match.normalized.startswith("2020/02/23")

    def test_default_date_for_time_only(self):
        detector = TimestampDetector(default_date=(2021, 3, 4))
        match = detector.identify(["09:00:31"], 0)
        assert match is not None
        assert match.normalized == "2021/03/04 09:00:31.000"


class TestDetectorOptimisations:
    def test_cache_records_matched_format(self):
        detector = TimestampDetector()
        detector.identify(["2016/02/23", "09:00:31"], 0)
        before = detector.stats.formats_tried
        detector.identify(["2017/11/05", "10:11:12"], 0)
        # The warm lookup must resolve with a single attempt.
        assert detector.stats.formats_tried - before == 1
        assert detector.stats.cache_hits == 1

    def test_filter_rejects_words_without_formats_tried(self):
        detector = TimestampDetector()
        detector.identify(["hello"], 0)
        assert detector.stats.filtered_out == 1
        assert detector.stats.formats_tried == 0

    def test_no_filter_tries_formats_on_words(self):
        detector = TimestampDetector(use_filter=False)
        detector.identify(["10.1.2.3"], 0)
        assert detector.stats.formats_tried > 0

    def test_reset_cache(self):
        detector = TimestampDetector()
        detector.identify(["2016/02/23", "09:00:31"], 0)
        detector.reset_cache()
        detector.stats.reset()
        detector.identify(["2016/02/23", "09:00:31"], 0)
        assert detector.stats.cache_hits == 0

    def test_format_cached_mid_call_is_still_swept(self):
        """A format another caller caches after this call's cache pass
        is still tried by this call's sweep."""
        tokens = ["2016/02/23", "09:00:31"]
        expected = TimestampDetector().identify(tokens, 0)
        detector = TimestampDetector()
        raced = []

        def racing(gate):
            def wrapped(token):
                if not raced:
                    # Another thread's call runs to the end here.
                    raced.append(None)
                    raced[0] = detector.identify(tokens, 0)
                return token if gate is None else gate(token)
            return wrapped

        detector._sweep = [
            (span, indices, racing(gate))
            for span, indices, gate in detector._sweep
        ]
        assert detector.identify(tokens, 0) == expected
        assert raced == [expected]
        assert expected.tokens_consumed == 2

    def test_all_configurations_agree(self):
        """Optimisations must never change *what* is identified."""
        samples = [
            ["2016/02/23", "09:00:31", "x"],
            ["Feb", "23,", "2016", "09:00:31"],
            ["word", "1456218031"],
            ["10.0.0.1", "connected"],
            ["13:59:59"],
            ["totally", "plain"],
            ["0x1f3a", "deadbeef"],
            ["November", "3", "monitor"],
            ["Mon", "Feb", "3", "09:00:31", "2016"],
            ["ſep", "01", "2016", "10:00:00"],
            ["[10/Oct/2000:13:55:36]"],
            ["[10/Oct/2000", "13:55:36]"],
            [""],
            ["éclair", "中文"],
        ]
        configs = [
            (True, True), (True, False), (False, True), (False, False)
        ]
        literal_led = ["[dd/MMM/yyyy:HH:mm:ss]", "[dd/MMM/yyyy HH:mm:ss]"]
        for extra in ([], literal_led):
            for tokens in samples:
                results = set()
                for cache, filt in configs:
                    det = TimestampDetector(use_cache=cache, use_filter=filt)
                    for sdf in extra:
                        det.add_format(sdf)
                    m = det.identify(tokens, 0)
                    results.add(None if m is None else m.normalized)
                assert len(results) == 1, (extra, tokens)


class TestCanonicalHelpers:
    def test_roundtrip(self):
        ms = 1462788000123
        assert parse_canonical(format_epoch_millis(ms)) == ms

    def test_parse_canonical_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_canonical("not a timestamp")

    def test_format_known_value(self):
        # 2016-05-09 10:00:00 UTC.
        assert format_epoch_millis(1462788000000) \
            == "2016/05/09 10:00:00.000"
