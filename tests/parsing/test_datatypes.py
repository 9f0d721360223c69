"""Unit tests for the datatype registry and coverage lattice."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parsing.datatypes import (
    DEFAULT_REGISTRY,
    Datatype,
    DatatypeRegistry,
    generality,
    infer_datatype,
    is_covered,
)


class TestInference:
    @pytest.mark.parametrize(
        "token, expected",
        [
            ("hello", "WORD"),
            ("Hello", "WORD"),
            ("123", "NUMBER"),
            ("-42", "NUMBER"),
            ("3.14", "NUMBER"),
            ("127.0.0.1", "IP"),
            ("10.255.0.254", "IP"),
            ("0x1A2B", "HEX"),
            ("0Xdeadbeef", "HEX"),
            ("user1", "NOTSPACE"),
            ("a-b-c", "NOTSPACE"),
            ("[error]", "NOTSPACE"),
            (
                "6a602aaa-9afd-4e2c-95e9-ee900dde4b50",
                "UUID",
            ),
            (
                "2016/02/23 09:00:31.000",
                "DATETIME",
            ),
        ],
    )
    def test_builtin_inference(self, token, expected):
        assert infer_datatype(token) == expected

    def test_most_specific_wins(self):
        # "123" is NUMBER and NOTSPACE; NUMBER is more specific.
        assert infer_datatype("123") == "NUMBER"

    def test_token_with_space_falls_to_anydata(self):
        assert infer_datatype("a b") == "ANYDATA"

    def test_empty_string_is_anydata(self):
        assert infer_datatype("") == "ANYDATA"


class TestCoverage:
    @pytest.mark.parametrize(
        "narrow, wide",
        [
            ("WORD", "NOTSPACE"),
            ("NUMBER", "NOTSPACE"),
            ("IP", "NOTSPACE"),
            ("HEX", "NOTSPACE"),
            ("UUID", "NOTSPACE"),
            ("WORD", "ANYDATA"),
            ("NOTSPACE", "ANYDATA"),
            ("DATETIME", "ANYDATA"),
            ("IP", "ANYDATA"),
        ],
    )
    def test_covered(self, narrow, wide):
        assert is_covered(narrow, wide)

    @pytest.mark.parametrize(
        "narrow, wide",
        [
            ("NOTSPACE", "WORD"),
            ("ANYDATA", "NOTSPACE"),
            ("NUMBER", "WORD"),
            ("WORD", "NUMBER"),
            ("DATETIME", "NOTSPACE"),  # contains a space
            ("IP", "NUMBER"),
        ],
    )
    def test_not_covered(self, narrow, wide):
        assert not is_covered(narrow, wide)

    def test_reflexive(self):
        for name in DEFAULT_REGISTRY.names():
            assert is_covered(name, name)

    def test_transitive_through_lattice(self):
        # WORD <= NOTSPACE <= ANYDATA implies WORD <= ANYDATA.
        assert is_covered("WORD", "ANYDATA")

    def test_coverage_is_sound_on_samples(self):
        """If narrow <= wide, every token matched by narrow matches wide."""
        samples = [
            "hello", "123", "-3.5", "127.0.0.1", "0xff", "user1",
            "6a602aaa-9afd-4e2c-95e9-ee900dde4b50",
        ]
        names = DEFAULT_REGISTRY.names()
        for narrow in names:
            for wide in names:
                if not DEFAULT_REGISTRY.is_covered(narrow, wide):
                    continue
                for token in samples:
                    if DEFAULT_REGISTRY.matches(token, narrow):
                        assert DEFAULT_REGISTRY.matches(token, wide), (
                            token, narrow, wide
                        )


class TestGenerality:
    def test_ordering(self):
        assert generality("IP") < generality("NUMBER")
        assert generality("NUMBER") < generality("WORD")
        assert generality("WORD") < generality("NOTSPACE")
        assert generality("NOTSPACE") < generality("ANYDATA")

    def test_unknown_name_is_literal(self):
        assert generality("not_a_type") == 0


class TestRegistryMutation:
    def test_register_custom_datatype(self):
        registry = DatatypeRegistry()
        registry.register(
            Datatype("MAC", r"(?:[0-9a-f]{2}:){5}[0-9a-f]{2}", 12,
                     parents=("NOTSPACE",))
        )
        assert registry.infer("aa:bb:cc:dd:ee:ff") == "MAC"
        assert registry.is_covered("MAC", "NOTSPACE")
        assert registry.is_covered("MAC", "ANYDATA")

    def test_register_unknown_parent_raises(self):
        registry = DatatypeRegistry()
        with pytest.raises(ValueError):
            registry.register(Datatype("X", r"x", 5, parents=("NOPE",)))

    def test_matches_unknown_type_raises(self):
        with pytest.raises(KeyError):
            DEFAULT_REGISTRY.matches("x", "NOPE")

    def test_contains_and_getitem(self):
        assert "WORD" in DEFAULT_REGISTRY
        assert DEFAULT_REGISTRY["WORD"].name == "WORD"
        assert "MISSING" not in DEFAULT_REGISTRY


def _user_registry():
    """The builtins plus types with capturing groups (one named), a
    generality tie (``KV``/``CODE`` at 12, ``TAG`` with ``WORD`` at 30)
    and a parentless type."""
    registry = DatatypeRegistry()
    for dt in (
        Datatype("KV", r"([a-z]+)=([0-9]+)", 12, parents=("NOTSPACE",)),
        Datatype("CODE", r"E(?P<code>[0-9]+)", 12, parents=("NOTSPACE",)),
        Datatype("VERSION", r"v([0-9]+)(\.([0-9]+))*", 15,
                 parents=("NOTSPACE",)),
        Datatype("TAG", r"#(\w+)", 30),
    ):
        registry.register(dt)
    return registry


_REGISTRIES = {"builtin": DatatypeRegistry(), "user": _user_registry()}


def _loop_infer(registry, token):
    """The ordered loop the alternation replaces: the first datatype in
    inference order whose own anchored regex matches."""
    for name in registry.names():
        if registry[name].compiled().match(token):
            return name
    return "ANYDATA"


@st.composite
def _tokens(draw, registry):
    languages = [
        st.from_regex(registry[name].pattern, fullmatch=True)
        for name in registry.names()
    ]
    return draw(st.one_of(
        *languages,
        st.text(max_size=12),
        st.sampled_from(["", " ", "\t", "a b", "\n", "x\ny", "12 34"]),
    ))


class TestAlternation:
    @pytest.mark.parametrize("kind", sorted(_REGISTRIES))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_alternation_equals_ordered_loop(self, kind, data):
        registry = _REGISTRIES[kind]
        token = data.draw(_tokens(registry))
        assert registry.infer(token) == _loop_infer(registry, token)

    def test_user_types_win_in_order(self):
        registry = _REGISTRIES["user"]
        assert registry.infer("ab=12") == "KV"
        assert registry.infer("E42") == "CODE"
        assert registry.infer("v1.2.3") == "VERSION"
        assert registry.infer("#ops") == "TAG"
        assert registry.infer("ops") == "WORD"

    @pytest.mark.parametrize("pattern", [
        r"(a)\1", r"(?P<x>a)(?P=x)", r"(a)?(?(1)b|c)", r"(?i)abc",
        r"F(?P<code>[0-9]+)",  # CODE already names a group "code"
    ])
    def test_unembeddable_regex_is_rejected(self, pattern):
        registry = _user_registry()
        names = registry.names()
        tokens = ["aa", "ab", "abc", "E42", "#ops", "ops", "12"]
        before = [registry.infer(t) for t in tokens]
        with pytest.raises(ValueError):
            registry.register(
                Datatype("BAD", pattern, 5, parents=("NOTSPACE",))
            )
        assert "BAD" not in registry
        assert registry.names() == names
        assert [registry.infer(t) for t in tokens] == before
