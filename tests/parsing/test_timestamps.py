"""Unit tests for timestamp identification and unification."""

import calendar
import datetime

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.parsing.timestamps import (
    CANONICAL_FORMAT,
    TimestampDetector,
    TimestampFormat,
    build_default_formats,
    format_epoch_millis,
    parse_canonical,
)

from .test_timestamp_knowledge_base import render_sdf


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


_KB = build_default_formats()
#: Formats ``add_format`` appends mid-stream: a literal-led one, one no
#: default format matches, and a duplicate of a default format.
_USER_FORMATS = ["[dd/MMM/yyyy:HH:mm:ss]", "yyyy/MM/dd'T'HH:mm", "HH:mm:ss"]
#: Formats with a civil date, so Feb 30 is impossible in them.
_DATED = [sdf for sdf in _KB if "d" in sdf and "M" in sdf]


def _instant(year, month, day, hour, minute, second, milli):
    """A :func:`render_sdf` reference for one instant."""
    when = datetime.datetime(year, month, day, hour, minute, second)
    seconds = calendar.timegm(when.timetuple())
    return {
        "year": year, "month": month, "day": day, "hour": hour,
        "minute": minute, "second": second, "milli": milli,
        "weekday": when.strftime("%a"), "weekday_full": when.strftime("%A"),
        "epoch_seconds": seconds, "epoch_millis": seconds * 1000 + milli,
    }


#: Days from 13 keep MM/dd and dd/MM apart; years 2002-2031 keep the
#: epoch renderings at 10 and 13 digits.  Under those, a warm cache and
#: no cache agree on every default format (the cache picks the first
#: cached format that matches, the sweep the widest).
_INSTANTS = st.builds(
    _instant,
    st.integers(2002, 2031), st.integers(1, 12), st.integers(13, 28),
    st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
    st.integers(0, 999),
)
_FEB_30 = dict(_instant(2016, 2, 1, 10, 0, 0, 0), day=30)

_STEPS = st.one_of(
    # A run of one identical window.
    st.tuples(
        st.just("run"), st.sampled_from(_KB + _USER_FORMATS), _INSTANTS,
        st.integers(1, 4),
    ),
    # The same text as separate tokens, then as one token: the window
    # text reaches formats of two spans.
    st.tuples(st.just("split-joined"), st.sampled_from(_KB), _INSTANTS),
    st.tuples(
        st.just("run"), st.sampled_from(_DATED), st.just(_FEB_30),
        st.integers(1, 3),
    ),
    st.tuples(st.just("add"), st.sampled_from(_USER_FORMATS)),
    st.just(("reset",)),
)


def _windows(step):
    """The token lists one step looks up, in order."""
    text = render_sdf(step[1], step[2])
    if step[0] == "run":
        return [text.split(" ") + ["tail"]] * step[3]
    return [text.split(" ") + ["tail"], [text, "tail"]]


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

    @given(st.lists(_STEPS, min_size=1, max_size=25))
    @settings(max_examples=80, deadline=None)
    @example([
        # Two cached formats of one span see the same window: the first
        # fails it, the second matches it.
        ("run", "yyyy/MM/dd HH:mm", _instant(2016, 2, 23, 9, 7, 31, 0), 1),
        ("run", "yyyy/MM/dd HH:mm:ss", _instant(2016, 2, 23, 9, 7, 31, 0),
         3),
        # A span-1 format is cached, then one text as two tokens and as
        # one token.
        ("run", "EPOCH_SECONDS", _instant(2016, 2, 23, 9, 7, 31, 0), 1),
        ("split-joined", "yyyy/MM/dd HH:mm:ss",
         _instant(2016, 2, 23, 9, 7, 31, 0)),
        ("run", "yyyy-MM-dd HH:mm:ss", _FEB_30, 2),
        ("reset",),
        ("add", "[dd/MMM/yyyy:HH:mm:ss]"),
        ("run", "[dd/MMM/yyyy:HH:mm:ss]", _instant(2020, 5, 17, 1, 2, 3, 4),
         2),
    ])
    def test_memo_changes_no_answer_and_no_count(self, steps):
        """Every answer equals a cacheless detector's, and the answers
        and every :class:`DetectorStats` count equal those of a detector
        whose memo is emptied before every call.  This fails for a memo
        keyed without the format index, a ``reset_cache`` that keeps the
        memo, and a memo hit that skips ``formats_tried`` or
        ``cache_hits``."""
        memo = TimestampDetector()
        scrubbed = TimestampDetector()
        uncached = TimestampDetector(use_cache=False)
        detectors = (memo, scrubbed, uncached)
        for step in steps:
            if step[0] == "add":
                for detector in detectors:
                    detector.add_format(step[1])
                continue
            if step[0] == "reset":
                for detector in detectors:
                    detector.reset_cache()
                assert memo._last == {}
                continue
            for tokens in _windows(step):
                got = memo.identify(tokens, 0)
                scrubbed._last.clear()
                assert got == scrubbed.identify(tokens, 0), (step, tokens)
                assert memo.stats == scrubbed.stats, (step, tokens)
                # All but the format name: "MMM d" and "MMM dd" both
                # read "Feb 23".
                plain = uncached.identify(tokens, 0)
                assert (got and got[:2] + got[3:]) == (
                    plain and plain[:2] + plain[3:]
                ), (step, tokens)

    def test_repeat_skips_conversion(self, monkeypatch):
        """The sweep caches the format; the cache pass fills its slot;
        the next equal window is answered from the slot."""
        detector = TimestampDetector()
        tokens = ["2016/02/23", "09:00:31", "x"]
        detector.identify(tokens, 0)
        second = detector.identify(tokens, 0)
        converted = []
        monkeypatch.setattr(
            detector, "_convert", lambda *a: converted.append(a)
        )
        tried = detector.stats.formats_tried
        assert detector.identify(list(tokens), 0) is second
        assert converted == []
        assert detector.stats.cache_hits == 2
        assert detector.stats.formats_tried == tried + 1

    def test_impossible_date_repeat_is_remembered_as_none(
        self, monkeypatch
    ):
        detector = TimestampDetector()
        detector.identify(["2016/02/23", "09:00:31"], 0)
        assert detector.identify(["2016/02/30", "09:00:31"], 0) is None
        converted = []
        monkeypatch.setattr(
            detector, "_convert", lambda *a: converted.append(a)
        )
        for _ in range(2):
            assert detector.identify(["2016/02/30", "09:00:31"], 0) is None
        assert converted == []
        assert detector.stats.cache_hits == 0


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
