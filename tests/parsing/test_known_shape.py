"""The parser's known-shape path against the slow path it stands in for.

``FastLogParser.parse_tallied`` answers a line of an already-seen shape
from a literal skeleton: one split, the leading token through the
detector's own ``lookup``, one compare of the literals, a datatype for
each field token and one probe of the memoised group.  Whatever it
returns must equal what the tokenizer's loop and the index give for the
same line (``Tokenizer._tokenize`` then ``FastLogParser._parse_tokenized``,
called directly on a second parser): the document with its field order,
the anomaly, every ``ParseTally`` count and the detector's stats — also
across a model publish, an added timestamp format and a registered
datatype between two lines.
"""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.parsing.datatypes import Datatype, DatatypeRegistry
from repro.parsing.grok import Field, GrokPattern, Literal
from repro.parsing.parser import FastLogParser, ParsedLog, PatternModel
from repro.parsing.timestamps import TimestampDetector
from repro.parsing.tokenizer import ParseTally, SplitRule, Tokenizer

_COUNTS = [name for name in ParseTally.__slots__ if name != "durations"]

# Literals overlap field values on purpose.  "Mar" and "2016/05/09" pass
# the timestamp gate, so a pattern holding them stays off the path, as
# does one with an ``ANYDATA`` field or a ``DATETIME`` one after element
# 0; they are drawn less often so most pattern sets reach the path.
_LITERALS = ["db", "user", "open", "a", "7", "E1", "x-y"] * 3 + [
    "Mar", "2016/05/09",
]
_FIELD_TYPES = ["WORD", "NUMBER", "NOTSPACE", "IP", "HEX"] * 3 + [
    "DATETIME", "ANYDATA",
]
# Values per field type.  "12", "Mar" and "2016/05/09" pass the gate but
# start no timestamp; "1462791674" is an epoch, a timestamp of its own;
# the gate passes "T11:01:14" and "09|05|2016" only once one of the
# extra formats is added.  "E1" is a WORD field's value only under the
# registry where CODE is declared under WORD.
_VALUES = {
    "WORD": ["bob", "db", "user", "Mar", "E1"],
    "NUMBER": ["42", "7", "-3", "12", "1462791674"],
    "NOTSPACE": ["a/b", "x-y", "E1", "2016/05/09", "T11:01:14", "09|05|2016"],
    "IP": ["10.0.0.1", "192.168.1.20"],
    "HEX": ["0x1f", "0xBEEF"],
}
# One instant in the four renderings the ``formats`` benchmark interleaves:
# canonical, ISO 8601, syslog and epoch milliseconds.
_STAMPS = [
    "2016/05/09 11:01:14.972",
    "2016-05-09T11:01:14.972Z",
    "May  9 11:01:14",
    "1462791674972",
]
_SEPARATORS = [" "] * 6 + ["  ", "\t", " \t ", "\u00a0", "\u2003"]
_EXTRA_FORMATS = ["dd|MM|yyyy HH:mm:ss", "'T'HH:mm:ss", "yyyy-MM-dd"]
# A type whose declared parent its regex does not fit: while the
# index's registry snapshot has it, the snapshot covers what the live
# registry (after CODE is registered again under NOTSPACE) does not.
_CODE_UNDER_WORD = Datatype("CODE", r"E[0-9]+", 11, parents=("WORD",))
_NEW_TYPES = [
    Datatype("CODE", r"E[0-9]+", 11, parents=("NOTSPACE",)),
    Datatype("SLUG", r"[a-z]+-[a-z]+", 25, parents=("NOTSPACE",)),
    Datatype("WORD", r"[a-z]+", 30, parents=("NOTSPACE",)),
]

_element = st.one_of(
    st.builds(Literal, st.sampled_from(_LITERALS)),
    st.builds(
        Field,
        st.sampled_from(_FIELD_TYPES),
        st.sampled_from(["a", "b", "c", "ts"]),
    ),
)


@st.composite
def _elements(draw):
    """1-5 elements, half the time after a leading ``DATETIME`` field."""
    head = [Field("DATETIME", "ts")] if draw(st.booleans()) else []
    return head + draw(st.lists(_element, min_size=1, max_size=5))


@st.composite
def _pattern_sets(draw):
    """Random patterns, and siblings sharing one's first literal: the
    same elements with one field's type, or a later literal, changed."""
    shapes = draw(st.lists(_elements(), min_size=1, max_size=5))
    for elements in list(shapes):
        if draw(st.booleans()):
            sibling = list(elements)
            k = draw(st.integers(0, len(sibling) - 1))
            if isinstance(sibling[k], Field):
                sibling[k] = Field(
                    draw(st.sampled_from(_FIELD_TYPES)), sibling[k].name
                )
            elif k > 0:
                sibling[k] = Literal(draw(st.sampled_from(_LITERALS)))
            shapes.append(sibling)
    return shapes


def _render(draw, elements):
    tokens = []
    for element in elements:
        if isinstance(element, Literal):
            tokens.append(element.text)
        elif element.datatype == "DATETIME":
            tokens.extend(draw(st.sampled_from(_STAMPS)).split())
        elif element.datatype == "ANYDATA":
            tokens.extend(
                draw(st.lists(st.sampled_from(["q", "7", "db"]), max_size=2))
            )
        else:
            tokens.append(draw(st.sampled_from(_VALUES[element.datatype])))
    return tokens


@st.composite
def _line(draw, shapes):
    """A line of one of ``shapes``, or a near miss of one."""
    tokens = _render(draw, draw(st.sampled_from(shapes)))
    change = draw(st.sampled_from(
        ["none"] * 6 + ["literal", "add", "drop", "stamp", "empty"]
    ))
    if change == "literal" and tokens:
        k = draw(st.integers(0, len(tokens) - 1))
        tokens[k] = draw(st.sampled_from(_LITERALS + ["zzz"]))
    elif change == "add":
        k = draw(st.integers(0, len(tokens)))
        tokens.insert(k, draw(st.sampled_from(
            ["extra", "7", "2016/05/09", "1462791674"]
        )))
    elif change == "drop" and tokens:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif change == "stamp":
        tokens = draw(st.sampled_from(_STAMPS)).split() + tokens
    elif change == "empty":
        tokens = []
    separator = draw(st.sampled_from(_SEPARATORS))
    return draw(st.sampled_from(["", " "])) + separator.join(tokens)


@st.composite
def _scenarios(draw):
    """A pattern set and a run of lines (repeats warm the path), with a
    publish, an added format or a registered datatype in between."""
    shapes = draw(_pattern_sets())
    pool = draw(st.lists(_line(shapes), min_size=1, max_size=12))
    steps = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["line"] * 30 + [
            "publish", "add_format", "register",
        ]))
        if kind == "line":
            steps.append(("line", draw(st.sampled_from(pool))))
        elif kind == "publish":
            steps.append(("publish", draw(st.lists(
                st.sampled_from(range(len(shapes))), min_size=1, max_size=4
            ))))
        elif kind == "add_format":
            steps.append(("add_format", draw(st.sampled_from(_EXTRA_FORMATS))))
        else:
            steps.append(("register", (
                draw(st.sampled_from(_NEW_TYPES)),
                draw(st.sampled_from(["both", "tokenizer", "model"])),
            )))
    setup = {
        # One registry for tokenizers and patterns, or one each.
        "shared": draw(st.booleans()),
        "code_under_word": draw(st.booleans()),
    }
    return shapes, steps, setup


def _model(shapes, chosen, registry, version):
    return PatternModel(
        [
            GrokPattern(shapes[k], pattern_id=n + 1, registry=registry)
            for n, k in enumerate(chosen)
        ],
        version=version,
        registry=registry,
    )


def _pair(model, registry, detector=TimestampDetector, **tokenizer_args):
    """A parser for the path and one whose slow functions are the oracle,
    each with its own detector (from the ``detector`` factory, or none),
    tokenizer and metrics."""
    return [
        FastLogParser(
            model,
            tokenizer=Tokenizer(
                registry=registry,
                timestamp_detector=detector() if detector else None,
                **tokenizer_args,
            ),
            metrics=MetricsRegistry(),
        )
        for _ in range(2)
    ]


def _same(fast, oracle, raw, source="src"):
    """Parse ``raw`` both ways and assert every observable agrees."""
    tally = ParseTally()
    got = fast.parse_tallied(raw, source, tally)
    reference = ParseTally()
    want = oracle._parse_tokenized(
        oracle.tokenizer._tokenize(raw, reference), source, reference
    )
    assert type(got) is type(want), raw
    if isinstance(want, ParsedLog):
        assert got.to_document() == want.to_document(), raw
        assert list(got.fields) == list(want.fields), raw
    else:
        assert got.to_dict() == want.to_dict(), raw
    assert {c: getattr(tally, c) for c in _COUNTS} == {
        c: getattr(reference, c) for c in _COUNTS
    }, raw
    assert len(tally.durations) == 1
    fast_detector = fast.tokenizer.timestamp_detector
    if fast_detector is not None:
        assert fast_detector.stats == oracle.tokenizer.timestamp_detector.stats
    return got


class TestAgreesWithTheSlowPath:
    @given(scenario=_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_every_line_parses_as_the_slow_path_does(self, scenario):
        shapes, steps, setup = scenario
        registry = DatatypeRegistry()
        words = registry if setup["shared"] else DatatypeRegistry()
        if setup["code_under_word"]:
            registry.register(_CODE_UNDER_WORD)
            if words is not registry:
                words.register(_CODE_UNDER_WORD)
        version = 1
        model = _model(shapes, range(len(shapes)), registry, version)
        fast, oracle = _pair(model, words)
        for kind, arg in steps:
            if kind == "line":
                _same(fast, oracle, arg)
            elif kind == "publish":
                version += 1
                model = _model(shapes, arg, registry, version)
                fast.model = model
                oracle.model = model
            elif kind == "add_format":
                fast.tokenizer.timestamp_detector.add_format(arg)
                oracle.tokenizer.timestamp_detector.add_format(arg)
            else:
                datatype, target = arg
                if target != "tokenizer" or words is registry:
                    registry.register(datatype)
                if target != "model" and words is not registry:
                    words.register(datatype)
        for name in ("index.group_builds", "index.signature_comparisons"):
            assert (
                fast._metrics.counter(name).value
                == oracle._metrics.counter(name).value
            )

    def test_a_memoised_empty_group_resumes(self):
        """The skeleton of ``user %{NUMBER} logged`` matches ``user bob
        logged`` by its literals, but that shape's memoised group is
        empty: the path must fall back, not read its head."""
        registry = DatatypeRegistry()
        model = PatternModel(
            [GrokPattern.from_string(
                "user %{NUMBER:id} logged", pattern_id=1, registry=registry
            )],
            registry=registry,
        )
        fast, oracle = _pair(model, registry)
        for raw in ["user 42 logged", "user 43 logged", "user bob logged",
                    "user bob logged", "user carol logged", "user 44 logged"]:
            _same(fast, oracle, raw)
        assert fast.index._groups["WORD WORD WORD"] == []

    def test_an_added_format_is_seen_at_once(self):
        """"T11:01:14" was memoised as no timestamp; once its format is
        added the next line must look it up."""
        registry = DatatypeRegistry()
        model = PatternModel(
            [GrokPattern.from_string(
                "user %{NOTSPACE:id} logged", 1, registry
            )],
            registry=registry,
        )
        fast, oracle = _pair(model, registry)
        for _ in range(3):
            assert isinstance(
                _same(fast, oracle, "user T11:01:14 logged"), ParsedLog
            )
        for parser in (fast, oracle):
            parser.tokenizer.timestamp_detector.add_format("'T'HH:mm:ss")
        for _ in range(3):
            got = _same(fast, oracle, "user T11:01:14 logged")
            assert got.timestamp_millis

    def test_a_tokenizer_registry_edit_is_seen_at_once(self):
        """The tokenizer's registry is edited, the patterns' is not: the
        next line must be typed by the new inference plan, so "E1" is a
        CODE the index's snapshot does not know."""
        registry, words = DatatypeRegistry(), DatatypeRegistry()
        model = PatternModel(
            [GrokPattern.from_string(
                "user %{NOTSPACE:id} logged", 1, registry
            )],
            registry=registry,
        )
        fast, oracle = _pair(model, words)
        for _ in range(3):
            assert isinstance(_same(fast, oracle, "user E1 logged"), ParsedLog)
        words.register(Datatype("CODE", r"E[0-9]+", 11, parents=("NOTSPACE",)))
        for _ in range(3):
            assert not isinstance(
                _same(fast, oracle, "user E1 logged"), ParsedLog
            )

    def test_a_registry_edit_after_the_snapshot_admits_nothing(self):
        """The index's snapshot has CODE under WORD; the live registry no
        longer does, so the group's head no longer matches "E1" as a
        WORD and a hit would be wrong."""
        registry = DatatypeRegistry()
        registry.register(_CODE_UNDER_WORD)
        model = PatternModel(
            [GrokPattern.from_string("user %{WORD:id} logged", 1, registry)],
            registry=registry,
        )
        fast, oracle = _pair(model, registry)
        for _ in range(3):
            assert isinstance(_same(fast, oracle, "user E1 logged"), ParsedLog)
        registry.register(_NEW_TYPES[0])
        for _ in range(3):
            assert not isinstance(
                _same(fast, oracle, "user E1 logged"), ParsedLog
            )

    def test_wildcards_stay_off_the_path(self):
        """Two ``ANYDATA`` fields over two tokens: the later one takes
        both, which no position-by-position reading gives."""
        registry = DatatypeRegistry()
        model = PatternModel(
            [GrokPattern.from_string(
                "a %{ANYDATA:x} %{ANYDATA:y} b", 1, registry
            )],
            registry=registry,
        )
        fast, oracle = _pair(model, registry)
        for _ in range(3):
            got = _same(fast, oracle, "a p q b")
            assert got.fields == {"x": "", "y": "p q"}

    def test_fields_follow_the_element_order(self):
        registry = DatatypeRegistry()
        model = PatternModel(
            [GrokPattern.from_string(
                "%{DATETIME:ts} %{WORD:verb} id %{NUMBER:n}",
                pattern_id=3, registry=registry,
            )],
            registry=registry,
        )
        fast, oracle = _pair(model, registry)
        for n in range(3):
            raw = "2016/05/09 11:01:%02d open id %d" % (n, n)
            got = _same(fast, oracle, raw)
            assert list(got.fields) == ["ts", "verb", "n"]

    def test_a_publish_is_never_served_stale(self):
        registry = DatatypeRegistry()
        old = PatternModel(
            [GrokPattern.from_string("open %{WORD:w}", 1, registry)],
            registry=registry,
        )
        new = PatternModel(
            [GrokPattern.from_string("open %{WORD:w}", 2, registry)],
            version=2, registry=registry,
        )
        fast, oracle = _pair(old, registry)
        for _ in range(3):
            assert _same(fast, oracle, "open db").pattern_id == 1
        fast.model = new
        oracle.model = new
        assert _same(fast, oracle, "open db").pattern_id == 2
        assert _same(fast, oracle, "open db").pattern_id == 2


def _count_loop_calls(tokenizer):
    """Count the tokenizer loop's runs on ``tokenizer``."""
    calls = []
    loop = tokenizer._merge_timestamps

    def counting(texts, datatypes, ts_millis):
        calls.append(len(datatypes))
        return loop(texts, datatypes, ts_millis)

    tokenizer._merge_timestamps = counting
    return calls


_EVENT_GROKS = [
    "%{DATETIME:ts} worker %{WORD:verb} task %{NUMBER:n}",
    "%{DATETIME:ts} db %{IP:host} open",
]
_EVENT_LINES = [
    "2016/02/23 09:00:%02d worker started task %d" % (i, i) for i in range(20)
] + [
    "2016-02-23T09:01:%02d.000Z db 10.0.0.%d open" % (i, i) for i in range(20)
]


def _event_model():
    return PatternModel(
        [GrokPattern.from_string(g, i + 1) for i, g in enumerate(_EVENT_GROKS)]
    )


class TestTheLoopIsSkipped:
    def test_known_shapes_skip_the_tokenizer_loop(self):
        parser = FastLogParser(_event_model(), metrics=MetricsRegistry())
        calls = _count_loop_calls(parser.tokenizer)
        parser.parse_all(_EVENT_LINES[:2] + _EVENT_LINES[20:22])
        del calls[:]
        results = parser.parse_all(_EVENT_LINES)
        assert all(isinstance(r, ParsedLog) for r in results)
        assert calls == []

    def test_a_field_the_gate_accepts_is_looked_up_on_the_path(self):
        parser = FastLogParser(
            [GrokPattern.from_string("user %{NOTSPACE:day} logged", 1)],
            metrics=MetricsRegistry(),
        )
        calls = _count_loop_calls(parser.tokenizer)
        parser.parse_all(["user x logged", "user 11 logged"])
        del calls[:]
        # "12" passes the gate (a day of the month) but starts no
        # timestamp: the path looks it up once and keeps the line.
        assert parser.parse("user 12 logged").fields == {"day": "12"}
        assert calls == []
        # An epoch is a timestamp: merged on the path, and the tokenizer
        # takes over after it.
        stats = parser.tokenizer.timestamp_detector.stats
        lookups = stats.lookups
        assert parser.parse("user 1462791674 logged").timestamp_millis
        assert calls == [2]
        assert stats.lookups == lookups + 1

    def test_each_line_looks_up_its_leading_timestamp_once(self):
        detector = TimestampDetector()
        calls = []
        lookup = detector.lookup

        def counting(tokens, start):
            calls.append(tokens[start])
            return lookup(tokens, start)

        detector.lookup = counting
        lines = [
            "2016/02/23 09:%02d:%02d worker %s task" % (i // 60, i % 60, verb)
            for i in range(40)
            for verb in ("started", "finished")
        ] + ["2016/02/23 10:00:00 never seen before shape"]
        parser = FastLogParser(
            [GrokPattern.from_string("%{DATETIME:ts} worker %{WORD:v} task")],
            tokenizer=Tokenizer(timestamp_detector=detector),
            metrics=MetricsRegistry(),
        )
        for _ in range(2):
            del calls[:]
            parser.parse_all(lines)
            assert calls == ["2016/02/23"] * len(lines)

    def test_the_path_stays_off_where_it_cannot_prove_a_hit(self):
        """Custom delimiters, split rules and a detector without a gate
        keep every line on the tokenizer's loop, with the same answers."""
        registry = DatatypeRegistry()
        model = PatternModel(
            [GrokPattern.from_string(
                "%{DATETIME:ts} size %{NUMBER:n} KB", 1, registry
            )],
            registry=registry,
        )
        lines = ["2016/02/23 09:00:0%d size %d KB" % (i, i) for i in range(5)]
        for detector, args in (
            (TimestampDetector, {"delimiters": " ,"}),
            (TimestampDetector, {"split_rules": [SplitRule(r"([0-9]+)(KB)")]}),
            (lambda: TimestampDetector(use_filter=False), {}),
            (None, {}),
        ):
            fast, oracle = _pair(model, registry, detector, **args)
            calls = _count_loop_calls(fast.tokenizer)
            for raw in lines * 2:
                _same(fast, oracle, raw)
            assert len(calls) == len(lines) * 2, args


class TestThreads:
    def test_threads_racing_a_cold_table_get_the_slow_answers(self):
        """Eight threads share one cold parser, so they race to start its
        table and to admit patterns; every line must still parse as the
        slow functions parse it, with exact registry counts."""
        lines = _EVENT_LINES + [
            "2016/02/23 09:00:00 worker started task 12 extra",
            "2016/02/23 09:00:00 db 10.0.0.1 closed",
            "worker started task 7",
        ]
        oracle = FastLogParser(_event_model(), metrics=MetricsRegistry())
        tally = ParseTally()
        want = [
            _document(oracle._parse_tokenized(
                oracle.tokenizer._tokenize(raw, tally), "s", tally
            ))
            for raw in lines
        ]
        metrics = MetricsRegistry()
        shared = FastLogParser(_event_model(), metrics=metrics)
        got = []
        barrier = threading.Barrier(8)

        def drive():
            barrier.wait(timeout=30)
            results = [
                shared.parse(raw, "s") for _ in range(3) for raw in lines
            ]
            got.append([_document(result) for result in results])

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert got == [want * 3] * 8
        runs = 8 * 3
        assert metrics.counter("tokenizer.logs").value == runs * len(lines)
        assert metrics.counter("index.lookups").value == runs * len(lines)
        assert metrics.counter("parser.parsed").value == runs * tally.parsed
        assert (
            metrics.counter("tokenizer.timestamps_detected").value
            == runs * tally.timestamps
        )


def _document(result):
    if isinstance(result, ParsedLog):
        return result.to_document(), list(result.fields)
    return result.to_dict()
