"""A TokenizedLog is two parallel lists; matching on them is exact.

The tokenizer stores token texts and datatypes as parallel lists and
builds :class:`Token` values only when ``tokens`` is read.  These tests
hold :meth:`GrokPattern.match` on the lists to a reference matcher that
walks ``Token`` objects, and pin the list/view and pickle contracts.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.parsing.datatypes import Datatype, DatatypeRegistry
from repro.parsing.grok import Field, GrokPattern, Literal
from repro.parsing.tokenizer import TokenizedLog, Tokenizer

# A registry with two user datatypes: CODE is inferred for tokens like
# "E42"; HOSTISH is never inferred for "alpha" (WORD wins), so a HOSTISH
# field only accepts it through the registry.matches fallback.
REGISTRY = DatatypeRegistry()
REGISTRY.register(Datatype("CODE", r"E[0-9]+", 25, parents=("NOTSPACE",)))
REGISTRY.register(
    Datatype("HOSTISH", r"[a-z]+[0-9]*", 35, parents=("NOTSPACE",))
)
TOKENIZER = Tokenizer(registry=REGISTRY)

WORDS = [
    "alpha", "beta", "node7", "E42", "E7", "42", "-3.5", "10.0.0.1",
    "0xff", "x=1", "[a]", "2016/02/23 09:00:31", "Feb 23 09:00:31",
]
FIELD_TYPES = [
    "WORD", "NOTSPACE", "NUMBER", "IP", "DATETIME", "HEX", "CODE",
    "HOSTISH", "MYSTERY", "ANYDATA",
]


# ----------------------------------------------------------------------
# Reference: GrokPattern.match over Token objects.
# ----------------------------------------------------------------------
def _accepts(pattern, elem, tok):
    registry = pattern.registry
    if registry.is_covered(tok.datatype, elem.datatype):
        return True
    if elem.datatype in registry:
        return registry.matches(tok.text, elem.datatype)
    return False


def _is_wildcard(elem):
    return isinstance(elem, Field) and elem.datatype == "ANYDATA"


def reference_match(pattern, tokens):
    elements = pattern.elements
    if not pattern.has_wildcard:
        if len(tokens) != len(elements):
            return None
        out = {}
        for tok, elem in zip(tokens, elements):
            if isinstance(elem, Literal):
                if tok.text != elem.text:
                    return None
            else:
                if not _accepts(pattern, elem, tok):
                    return None
                out[elem.name] = tok.text
        return out
    n, m = len(tokens), len(elements)
    T = [[False] * (m + 1) for _ in range(n + 1)]
    T[0][0] = True
    for j in range(1, m + 1):
        if not _is_wildcard(elements[j - 1]):
            break
        T[0][j] = T[0][j - 1]
    for i in range(1, n + 1):
        tok = tokens[i - 1]
        for j in range(1, m + 1):
            elem = elements[j - 1]
            if _is_wildcard(elem):
                T[i][j] = T[i - 1][j] or T[i][j - 1]
            elif isinstance(elem, Literal):
                T[i][j] = T[i - 1][j - 1] and tok.text == elem.text
            else:
                T[i][j] = T[i - 1][j - 1] and _accepts(pattern, elem, tok)
    if not T[n][m]:
        return None
    out = {}
    i, j = n, m
    spans = {}
    while j > 0:
        elem = elements[j - 1]
        if _is_wildcard(elem):
            end = i
            while i > 0 and T[i - 1][j]:
                i -= 1
            spans[j - 1] = (i, end)
        else:
            if isinstance(elem, Field):
                out[elem.name] = tokens[i - 1].text
            i -= 1
        j -= 1
    for idx, (start, end) in spans.items():
        out[elements[idx].name] = " ".join(
            t.text for t in tokens[start:end]
        )
    return out


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
raw_lines = st.lists(st.sampled_from(WORDS), max_size=7).map(" ".join)


@st.composite
def log_and_pattern(draw):
    """A tokenized log plus a pattern drawn around its tokens: each
    position becomes its own literal, another literal, a field of some
    datatype, or nothing, with wildcards inserted anywhere."""
    log = TOKENIZER.tokenize(draw(raw_lines))
    elements = []
    for n, (text, datatype) in enumerate(zip(log.texts, log.datatypes)):
        if draw(st.integers(0, 5)) == 0:
            elements.append(Field("ANYDATA", "w%d" % n))
        action = draw(st.sampled_from(
            ["same", "same", "field", "field", "inferred", "other", "drop"]
        ))
        if action == "same":
            elements.append(Literal(text))
        elif action == "other":
            elements.append(Literal(draw(st.sampled_from(WORDS[:9]))))
        elif action == "inferred":
            elements.append(Field(datatype, "f%d" % n))
        elif action == "field":
            elements.append(
                Field(draw(st.sampled_from(FIELD_TYPES)), "f%d" % n)
            )
    if draw(st.booleans()):
        elements.append(Field("ANYDATA", "tail"))
    return log, GrokPattern(elements, pattern_id=1, registry=REGISTRY)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(log_and_pattern())
def test_match_on_lists_equals_token_reference(case):
    log, pattern = case
    assert pattern.match(log) == reference_match(pattern, log.tokens)


@settings(max_examples=200, deadline=None)
@given(raw_lines)
def test_tokens_view_is_the_parallel_lists(raw):
    log = TOKENIZER.tokenize(raw)
    assert len(log.texts) == len(log.datatypes) == len(log)
    assert list(zip(log.texts, log.datatypes)) == [
        (t.text, t.datatype) for t in log.tokens
    ]
    assert log.signature == " ".join(t.datatype for t in log.tokens)
    # The view is rebuilt per read, never cached on the log.
    assert log.tokens is not log.tokens


@settings(max_examples=200, deadline=None)
@given(raw_lines)
def test_pickle_round_trip_keeps_lists_and_signature(raw):
    log = TOKENIZER.tokenize(raw)
    signature = log.signature
    loaded = pickle.loads(pickle.dumps(log))
    assert loaded == log
    assert (loaded.raw, loaded.texts, loaded.datatypes) == (
        log.raw, log.texts, log.datatypes,
    )
    assert loaded.timestamp_millis == log.timestamp_millis
    assert loaded.signature == signature


def test_empty_log_matches_only_empty_or_wildcard_patterns():
    log = TOKENIZER.tokenize("")
    assert (log.texts, log.datatypes, log.signature) == ([], [], "")
    assert log.tokens == []
    empty = GrokPattern([], registry=REGISTRY)
    wildcard = GrokPattern([Field("ANYDATA", "all")], registry=REGISTRY)
    literal = GrokPattern([Literal("alpha")], registry=REGISTRY)
    for pattern in (empty, wildcard, literal):
        assert pattern.match(log) == reference_match(pattern, log.tokens)
    assert empty.match(log) == {}
    assert wildcard.match(log) == {"all": ""}
    assert literal.match(log) is None


def test_fallback_and_unknown_datatypes():
    log = TOKENIZER.tokenize("alpha E42")
    assert log.datatypes == ["WORD", "CODE"]
    hostish = GrokPattern.from_string(
        "%{HOSTISH:h} %{CODE:c}", registry=REGISTRY
    )
    assert hostish.match(log) == {"h": "alpha", "c": "E42"}
    mystery = GrokPattern.from_string(
        "%{MYSTERY:m} %{CODE:c}", registry=REGISTRY
    )
    assert mystery.match(log) is None
    for pattern in (hostish, mystery):
        assert pattern.match(log) == reference_match(pattern, log.tokens)


def test_constructor_takes_the_four_fields():
    log = TokenizedLog("a 1", ["a", "1"], ["WORD", "NUMBER"], 5)
    assert (log.raw, log.texts, log.datatypes, log.timestamp_millis) == (
        "a 1", ["a", "1"], ["WORD", "NUMBER"], 5,
    )
    assert log.signature == "WORD NUMBER"
