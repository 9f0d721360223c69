"""Unit tests for GROK patterns: parsing, matching, compilation."""

from repro.parsing.grok import GrokPattern
from repro.parsing.tokenizer import Tokenizer

TOKENIZER = Tokenizer()


def tl(raw):
    return TOKENIZER.tokenize(raw)


class TestConstruction:
    def test_from_string_roundtrip(self):
        expr = "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}"
        pattern = GrokPattern.from_string(expr)
        assert pattern.to_string() == expr

    def test_from_string_without_name(self):
        pattern = GrokPattern.from_string("%{WORD}")
        assert pattern.fields[0].name == "WORD"

    def test_fields_in_order(self):
        pattern = GrokPattern.from_string("%{WORD:a} x %{NUMBER:b}")
        assert [f.name for f in pattern.fields] == ["a", "b"]

    def test_equality_and_hash(self):
        a = GrokPattern.from_string("%{WORD:x} y", pattern_id=1)
        b = GrokPattern.from_string("%{WORD:x} y", pattern_id=1)
        c = GrokPattern.from_string("%{WORD:x} y", pattern_id=2)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_has_wildcard(self):
        assert GrokPattern.from_string("%{ANYDATA:rest}").has_wildcard
        assert not GrokPattern.from_string("%{WORD:w}").has_wildcard


class TestPaperExample:
    """The exact example of Section III of the paper."""

    def test_connect_db_example(self):
        pattern = GrokPattern.from_string(
            "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}"
        )
        fields = pattern.match(tl("Connect DB 127.0.0.1 user abc123"))
        assert fields == {
            "Action": "Connect",
            "Server": "127.0.0.1",
            "UserName": "abc123",
        }

    def test_pattern_signature(self):
        pattern = GrokPattern.from_string(
            "%{DATETIME:P1F1} %{IP:P1F2} %{WORD:P1F3} user1"
        )
        assert pattern.signature() == "DATETIME IP WORD NOTSPACE"


class TestMatching:
    def test_literal_mismatch(self):
        pattern = GrokPattern.from_string("%{WORD:a} DB")
        assert pattern.match(tl("Connect DATABASE")) is None

    def test_length_mismatch(self):
        pattern = GrokPattern.from_string("%{WORD:a} DB")
        assert pattern.match(tl("Connect DB extra")) is None
        assert pattern.match(tl("Connect")) is None

    def test_datatype_coverage_in_fields(self):
        # A WORD token is accepted by a NOTSPACE field...
        pattern = GrokPattern.from_string("%{NOTSPACE:x}")
        assert pattern.match(tl("hello")) == {"x": "hello"}
        # ...but a NOTSPACE token is not accepted by a WORD field.
        pattern = GrokPattern.from_string("%{WORD:x}")
        assert pattern.match(tl("a-b")) is None

    def test_number_field(self):
        pattern = GrokPattern.from_string("count = %{NUMBER:n}")
        assert pattern.match(tl("count = -3.5")) == {"n": "-3.5"}
        assert pattern.match(tl("count = abc")) is None


class TestWildcardMatching:
    def test_wildcard_absorbs_multiple_tokens(self):
        pattern = GrokPattern.from_string("SELECT %{ANYDATA:rest} done")
        fields = pattern.match(tl("SELECT a b c done"))
        assert fields == {"rest": "a b c"}

    def test_wildcard_matches_zero_tokens(self):
        pattern = GrokPattern.from_string("SELECT %{ANYDATA:rest} done")
        assert pattern.match(tl("SELECT done")) == {"rest": ""}

    def test_leading_wildcard(self):
        pattern = GrokPattern.from_string("%{ANYDATA:prefix} END")
        assert pattern.match(tl("a b END")) == {"prefix": "a b"}

    def test_trailing_wildcard(self):
        pattern = GrokPattern.from_string("BEGIN %{ANYDATA:rest}")
        assert pattern.match(tl("BEGIN x y z")) == {"rest": "x y z"}

    def test_wildcard_prefers_short_capture(self):
        pattern = GrokPattern.from_string("%{ANYDATA:a} x %{ANYDATA:b}")
        fields = pattern.match(tl("x x x"))
        assert fields is not None
        # Lazy assignment (regex-consistent): earlier wildcards capture
        # as little as possible.
        assert fields["a"] == ""
        assert fields["b"] == "x x"

    def test_wildcard_between_fields(self):
        pattern = GrokPattern.from_string(
            "%{WORD:w} %{ANYDATA:mid} %{NUMBER:n}"
        )
        fields = pattern.match(tl("go a b c 42"))
        assert fields == {"w": "go", "mid": "a b c", "n": "42"}

    def test_wildcard_no_match(self):
        pattern = GrokPattern.from_string("BEGIN %{ANYDATA:rest} END")
        assert pattern.match(tl("other stuff END")) is None


class TestGeneralityOrdering:
    def test_literal_more_specific_than_field(self):
        literal = GrokPattern.from_string("a b c")
        fielded = GrokPattern.from_string("%{WORD:x} b c")
        assert literal.generality_key() < fielded.generality_key()

    def test_specific_datatype_sorts_first(self):
        ip = GrokPattern.from_string("%{IP:x}")
        notspace = GrokPattern.from_string("%{NOTSPACE:x}")
        assert ip.generality_key() < notspace.generality_key()


class TestRegexCompilation:
    def test_compiled_matches_same_fields(self):
        pattern = GrokPattern.from_string(
            "%{WORD:Action} DB %{IP:Server} user %{NOTSPACE:UserName}"
        )
        compiled = pattern.compile_regex()
        fields = compiled.match("Connect DB 127.0.0.1 user abc123")
        assert fields == {
            "Action": "Connect",
            "Server": "127.0.0.1",
            "UserName": "abc123",
        }

    def test_compiled_no_match(self):
        pattern = GrokPattern.from_string("%{WORD:a} DB")
        assert pattern.compile_regex().match("Connect DATABASE x") is None

    def test_compiled_handles_special_chars_in_literals(self):
        pattern = GrokPattern.from_string("value (cached) = %{NUMBER:n}")
        assert pattern.compile_regex().match("value (cached) = 7") == {
            "n": "7"
        }

    def test_compiled_wildcard(self):
        pattern = GrokPattern.from_string("BEGIN %{ANYDATA:rest} END")
        fields = pattern.compile_regex().match("BEGIN a b END")
        assert fields == {"rest": "a b"}

    def test_token_and_regex_engines_agree(self):
        """Both matching engines accept/reject the same logs."""
        pattern = GrokPattern.from_string(
            "%{WORD:w} stage %{NUMBER:n} of %{NOTSPACE:id}"
        )
        compiled = pattern.compile_regex()
        for raw in (
            "run stage 3 of abc-1",
            "run stage x of abc-1",
            "run stage 3 of",
            "run stage 3 of abc-1 extra",
        ):
            token_result = pattern.match(tl(raw))
            regex_result = compiled.match(" ".join(tl(raw).texts))
            assert (token_result is None) == (regex_result is None), raw
            if token_result is not None:
                assert token_result == regex_result
