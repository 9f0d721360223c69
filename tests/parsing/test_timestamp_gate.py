"""The derived timestamp gate: exact by construction.

The gate only prunes windows that cannot match, so a filtered detector
must identify exactly what an unfiltered one does — token by token, line
by line, and after formats are added mid-stream.
"""

import random
import re

from hypothesis import given, settings, strategies as st

from repro.datasets import TemplateCorpus, generate_d1
from repro.parsing.timestamps import (
    TimestampDetector,
    build_default_formats,
    compiled_format,
)
from repro.parsing.tokenizer import Tokenizer

# Formats a user might add: literal-led (single- and multi-token), an
# unusual separator, an empty head, a non-ASCII literal lead.
_EXTRA_FORMATS = [
    "[dd/MMM/yyyy:HH:mm:ss]",
    "[dd/MMM/yyyy HH:mm:ss]",
    "'T'HH:mm:ss",
    "dd|MM|yyyy HH:mm:ss",
    " HH:mm",
    "'\u017f'yyyy",
]

_MONTHS = ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"]
_DAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
         "Saturday", "Sunday"]

_SDF_FIELD = re.compile(r"'[^']*'|y+|M+|d+|H+|m+|s+|S+|E+")


def _render(sdf, y, mo, d, h, mi, s, micro, weekday):
    """``sdf`` rendered for the given fields (dates need not be valid)."""
    if sdf == "EPOCH_SECONDS":
        return "1%09d" % (y * mo * d * 7919 % 10 ** 9)
    if sdf == "EPOCH_MILLIS":
        return "1%012d" % (y * mo * d * h * 104729 % 10 ** 12)
    values = {
        "yyyy": "%04d" % y, "yy": "%02d" % (y % 100),
        "MMMM": _MONTHS[mo - 1], "MMM": _MONTHS[mo - 1][:3],
        "MM": "%02d" % mo, "M": str(mo),
        "dd": "%02d" % d, "d": str(d),
        "HH": "%02d" % h, "H": str(h), "mm": "%02d" % mi, "ss": "%02d" % s,
        "SSS": "%03d" % (micro // 1000), "SSSSSS": "%06d" % micro,
        "EEEE": _DAYS[weekday], "EEE": _DAYS[weekday][:3],
    }

    def field(m):
        text = m.group(0)
        return text[1:-1] if text.startswith("'") else values[text]

    return _SDF_FIELD.sub(field, sdf)


_NOISE = [
    # IPs, hex ids, bare numbers.
    "10.0.0.1", "192.168.1.20", "0x1f3a", "deadbeef", "1a2b3c", "7", "12",
    "31", "2016", "123456", "20160223", "1456218031", "00",
    # Month/day-prefixed words and bare names.
    "November", "monitor", "Marching", "sunday", "Decline", "mon", "Feb",
    "Tue,", "augment", "Sept",
    # Bracket literals and the empty token.
    "[10/Oct/2000:13:55:36]", "[10/Oct/2000", "13:55:36]", "[info]", "[",
    "",
    # Non-ASCII initials, some of which IGNORECASE folds onto ASCII.
    "\u017fep", "\u017f2016", "\u0130", "\u0131", "\u212a", "éclair",
    "Ωmega", "中文",
]

_datetimes = st.tuples(
    st.integers(1971, 2037), st.integers(1, 12), st.integers(1, 31),
    st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
    st.integers(0, 999999), st.integers(0, 6),
)


@st.composite
def _pieces(draw):
    """Whitespace chunks of every default and extra format, plus noise."""
    fields = draw(_datetimes)
    pool = list(_NOISE)
    for sdf in build_default_formats() + _EXTRA_FORMATS:
        pool.extend(_render(sdf, *fields).split(" "))
    return pool


_CASES = [str, str.upper, str.lower, str.swapcase]


@st.composite
def _streams(draw):
    pool = draw(_pieces())
    lines = draw(st.lists(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from(_CASES)),
            min_size=1, max_size=8,
        ),
        min_size=1, max_size=6,
    ))
    lines = [[case(text) for text, case in line] for line in lines]
    add_at = draw(st.integers(0, len(lines)))
    extra = draw(st.lists(st.sampled_from(_EXTRA_FORMATS), max_size=3))
    return lines, add_at, extra


class TestGateIsExact:
    @given(stream=_streams())
    @settings(max_examples=150, deadline=None)
    def test_filtered_detector_agrees_with_unfiltered(self, stream):
        """Both keep a cache, so their caches evolve identically."""
        lines, add_at, extra = stream
        gated = TimestampDetector()
        oracle = TimestampDetector(use_filter=False)
        for n, tokens in enumerate(lines):
            if n == add_at:
                for sdf in extra:
                    gated.add_format(sdf)
                    oracle.add_format(sdf)
            for i in range(len(tokens)):
                assert gated.identify(tokens, i) == oracle.identify(
                    tokens, i
                ), (tokens, i)


def _assert_tokenizers_agree(lines, **kwargs):
    gated = Tokenizer(timestamp_detector=TimestampDetector(), **kwargs)
    oracle = Tokenizer(
        timestamp_detector=TimestampDetector(use_filter=False), **kwargs
    )
    for line in lines:
        assert gated.tokenize(line) == oracle.tokenize(line), line


def _stamp(kind, millis):
    """The four timestamp styles of the ``formats`` perf workload."""
    seconds, milli = divmod(millis, 1000)
    days, rest = divmod(seconds, 86400)
    h, rest = divmod(rest, 3600)
    mi, s = divmod(rest, 60)
    d = 1 + days % 28
    if kind == 0:
        return "2016/03/%02d %02d:%02d:%02d.%03d" % (d, h, mi, s, milli)
    if kind == 1:
        return "2016-03-%02dT%02d:%02d:%02d.%03dZ" % (d, h, mi, s, milli)
    if kind == 2:
        return "Mar %2d %02d:%02d:%02d" % (d, h, mi, s)
    return str(millis)


class TestTokenizerAgrees:
    def test_d1_lines(self):
        data = generate_d1(events_per_workflow=30, seed=7)
        _assert_tokenizers_agree((data.train + data.test)[:800])

    def test_template_corpus_in_four_stamp_styles(self):
        corpus = TemplateCorpus(
            n_templates=60,
            vocabulary=["bgp", "mon", "session", "nov", "up", "0x1f"],
            seed=3,
            with_timestamp=False,
        )
        rng = random.Random(3)
        millis = 1_456_218_031_000
        lines = []
        for i, body in enumerate(corpus.render(400)):
            millis += rng.randint(1, 50_000)
            lines.append("%s %s" % (_stamp(i % 4, millis), body))
        _assert_tokenizers_agree(lines)

    def test_comma_delimiters_keep_spaces_inside_tokens(self):
        lines = [
            "2016/02/23 09:00:31,job,done",
            "Feb 23 2016 09:00:31,x",
            "a,Mon Feb  3 09:00:31 2016,b",
            "10.0.0.1 up,1456218031,nov 3",
            ",,Tue, 23 Feb 2016 09:00:31",
            "\u017fep 01 2016 10:00:00,y",
        ]
        _assert_tokenizers_agree(lines, delimiters=",")


class TestLiteralLedFormats:
    """Formats that open with a literal were never found with the filter
    on: the old shape filter only admitted digits and month/day names."""

    def test_single_token(self):
        detector = TimestampDetector()
        detector.add_format("[dd/MMM/yyyy:HH:mm:ss]")
        match = detector.identify(["[10/Oct/2000:13:55:36]"], 0)
        assert match is not None
        assert match.normalized == "2000/10/10 13:55:36.000"

    def test_multi_token(self):
        detector = TimestampDetector()
        detector.add_format("[dd/MMM/yyyy HH:mm:ss]")
        match = detector.identify(["[10/Oct/2000", "13:55:36]", "GET"], 0)
        assert match is not None
        assert match.tokens_consumed == 2
        assert match.normalized == "2000/10/10 13:55:36.000"

    def test_through_the_tokenizer(self):
        detector = TimestampDetector()
        detector.add_format("[dd/MMM/yyyy:HH:mm:ss]")
        log = Tokenizer(timestamp_detector=detector).tokenize(
            "1.2.3.4 - - [10/Oct/2000:13:55:36] GET /index.html"
        )
        assert log.tokens[3].datatype == "DATETIME"
        assert log.timestamp_millis == 971186136000


class TestGateConstruction:
    def test_head_is_first_chunk_without_named_groups(self):
        fmt = compiled_format("EEE, dd MMM yyyy HH:mm:ss")
        assert fmt.head == "(?:mon|tue|wed|thu|fri|sat|sun),"
        assert fmt.start_chars == frozenset("mtwfsMTWFS")
        assert compiled_format("'T'HH:mm:ss").start_chars == {"t", "T"}

    def test_unknown_starts_fall_back_to_any(self):
        assert compiled_format(" HH:mm").start_chars is None
        assert compiled_format("'\u017f'yyyy").start_chars is None
        detector = TimestampDetector(formats=["'\u017f'yyyy"])
        assert "s" in detector.start_chars and "" in detector.start_chars
        assert detector.identify(["S2016"], 0) is not None

    def test_no_gate_without_filter(self):
        detector = TimestampDetector(use_filter=False)
        assert detector.gate is None and detector.start_chars is None

    def test_gates_shared_per_knowledge_base(self):
        a, b = TimestampDetector(), TimestampDetector()
        assert a.gate is b.gate
        a.add_format("dd|MM|yyyy HH:mm:ss")
        assert a.gate is not b.gate
        assert a.gate("23|02|2016") and not b.gate("23|02|2016")

    def test_empty_knowledge_base_admits_nothing(self):
        detector = TimestampDetector(formats=[])
        assert detector.start_chars == frozenset()
        assert detector.identify(["2016/02/23"], 0) is None
        assert detector.stats.filtered_out == 1

    def test_numbers_words_and_ips_are_gated(self):
        gate = TimestampDetector().gate
        for token in ("10.0.0.1", "0x1f3a", "monitor", "March", "123"):
            assert gate(token) is None, token
        for token in ("2016/02/23", "Feb", "Tue,", "23", "1456218031"):
            assert gate(token) is not None, token

    def test_non_ascii_month_folds_like_the_regex(self):
        match = TimestampDetector().identify(
            ["\u017fep", "01", "2016", "10:00:00"], 0
        )
        assert match is not None
        assert match.normalized == "2016/09/01 10:00:00.000"
