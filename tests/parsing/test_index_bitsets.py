"""The bitset group build against a brute-force Algorithm 1 scan.

The reference for a log-signature is the scan the index replaces: every
wildcard-free pattern that ``is_matched`` accepts, in list order, then
every wildcard pattern it accepts, in list order, then a stable sort by
``generality_key``.  The index must return exactly that list — contents
and order — including after the registry is edited, where the reference
runs under a copy of the registry taken before the edit.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.parsing.datatypes import Datatype, DatatypeRegistry
from repro.parsing.grok import Field, GrokPattern, Literal
from repro.parsing.index import PatternIndex
from repro.parsing.matcher import is_matched_tokens
from repro.parsing.tokenizer import TokenizedLog


def _registry():
    """Built-ins plus user types: a coverage chain (CODE under NOTSPACE,
    ERR beside it), a type no other type covers (LONE), and one whose
    generality ties with ``ANYDATA`` (TIE)."""
    registry = DatatypeRegistry()
    registry.register(
        Datatype("ERR", r"[EW][0-9]+", 12, parents=("NOTSPACE",))
    )
    registry.register(
        Datatype("CODE", r"E[0-9]+", 11, parents=("NOTSPACE",))
    )
    registry.register(Datatype("LONE", r"~[a-z]+", 5))
    registry.register(
        Datatype("TIE", r"![a-z]+", 100, parents=("NOTSPACE",))
    )
    return registry


def _edit(registry):
    """Change coverage and add a type; no existing generality changes,
    so ``generality_key`` reads the same before and after."""
    registry.register(Datatype("CODE", r"E[0-9]+", 11, parents=("ERR",)))
    registry.register(Datatype("NEW", r"#[0-9]+", 13, parents=("CODE",)))


# ``GHOST`` is a field type no registry knows; ``STRANGER`` appears only
# in log signatures.  Both match only themselves.
FIELD_TYPES = [
    "ANYDATA", "NOTSPACE", "WORD", "NUMBER", "IP", "HEX",
    "ERR", "CODE", "LONE", "TIE", "GHOST",
]
LOG_TYPES = [
    "ANYDATA", "NOTSPACE", "WORD", "NUMBER", "IP", "HEX",
    "ERR", "CODE", "LONE", "TIE", "GHOST", "NEW", "STRANGER",
]
LITERALS = ["a", "7", "E1", "W2", "~x", "!y", "#3"]

element = st.one_of(
    st.builds(Field, st.sampled_from(FIELD_TYPES), st.just("f")),
    st.builds(Literal, st.sampled_from(LITERALS)),
)
# Two patterns whose ``generality_key`` ties, (100, 2), across the
# wildcard-free and the wildcard set; every pattern set holds both.
TIED = [
    [Field("TIE", "f"), Literal("a")],
    [Field("ANYDATA", "f"), Literal("7")],
]
shapes = st.lists(
    st.lists(element, min_size=1, max_size=4), max_size=12
).flatmap(lambda drawn: st.permutations(drawn + TIED))


def _patterns(shapes, registry):
    return [
        GrokPattern(elements, pattern_id=i + 1, registry=registry)
        for i, elements in enumerate(shapes)
    ]


def _scan(patterns, parts, registry):
    free = [
        p for p in patterns
        if not p.has_wildcard
        and is_matched_tokens(parts, p.signature_tokens(), registry)
    ]
    wild = [
        p for p in patterns
        if p.has_wildcard
        and is_matched_tokens(parts, p.signature_tokens(), registry)
    ]
    return [
        p.pattern_id
        for p in sorted(free + wild, key=GrokPattern.generality_key)
    ]


def _group(index, parts):
    log = TokenizedLog(" ".join(parts), ["x"] * len(parts), list(parts))
    return [p.pattern_id for p in index.candidate_group(log)]


def _signatures(data, patterns, count):
    """Random signatures, half of them a pattern's own signature with
    some positions swapped, so that groups are rarely empty."""
    out = []
    for _ in range(count):
        if data.draw(st.booleans()):
            pattern = data.draw(st.sampled_from(patterns))
            base = list(pattern.signature_tokens())
            for i in range(len(base)):
                if data.draw(st.booleans()):
                    base[i] = data.draw(st.sampled_from(LOG_TYPES))
            out.append(base)
        else:
            out.append(
                data.draw(st.lists(st.sampled_from(LOG_TYPES), max_size=5))
            )
    return out


@settings(max_examples=150, deadline=None)
@given(shapes=shapes, data=st.data())
def test_bitset_group_equals_scan(shapes, data):
    registry = _registry()
    patterns = _patterns(shapes, registry)
    index = PatternIndex(patterns, registry, metrics=MetricsRegistry())
    for parts in _signatures(data, patterns, 12):
        assert _group(index, parts) == _scan(patterns, parts, registry)


@settings(max_examples=150, deadline=None)
@given(shapes=shapes, data=st.data())
def test_registry_edit_after_first_build(shapes, data):
    registry = _registry()
    patterns = _patterns(shapes, registry)
    index = PatternIndex(patterns, registry, metrics=MetricsRegistry())
    first, *rest = _signatures(data, patterns, 12)
    before = copy.deepcopy(registry)
    assert _group(index, first) == _scan(patterns, first, before)
    _edit(registry)
    for parts in rest:
        assert _group(index, parts) == _scan(patterns, parts, before)
    # A fresh index (what a publish builds) reads the edited registry.
    fresh = PatternIndex(patterns, registry, metrics=MetricsRegistry())
    for parts in rest:
        assert _group(fresh, parts) == _scan(patterns, parts, registry)


def test_registry_edit_never_mixes_two_registries():
    """A group built after an edit follows the registry of the first
    build at every position, not just the first one."""
    registry = _registry()
    patterns = [
        GrokPattern.from_string(e, pattern_id=i + 1, registry=registry)
        for i, e in enumerate(["%{ERR:a} %{CODE:b}", "%{CODE:a} %{ERR:b}"])
    ]
    index = PatternIndex(patterns, registry, metrics=MetricsRegistry())
    before = copy.deepcopy(registry)
    assert _group(index, ["CODE", "WORD"]) == []
    # CODE now sits under ERR, so both patterns accept ``CODE CODE``.
    _edit(registry)
    assert _scan(patterns, ["CODE", "CODE"], registry) == [1, 2]
    assert _scan(patterns, ["CODE", "CODE"], before) == []
    assert _group(index, ["CODE", "CODE"]) == []
    fresh = PatternIndex(patterns, registry, metrics=MetricsRegistry())
    assert _group(fresh, ["CODE", "CODE"]) == [1, 2]
