"""Unit tests for log preprocessing (tokenization, split rules)."""

import pytest

from repro.parsing.datatypes import Datatype, DatatypeRegistry
from repro.parsing.timestamps import TimestampDetector
from repro.parsing.tokenizer import SplitRule, Tokenizer


class TestBasicTokenization:
    def setup_method(self):
        self.tokenizer = Tokenizer()

    def test_whitespace_split(self):
        log = self.tokenizer.tokenize("Connect DB 127.0.0.1 user abc123")
        assert log.texts == ["Connect", "DB", "127.0.0.1", "user", "abc123"]

    def test_datatype_tagging(self):
        log = self.tokenizer.tokenize("Connect DB 127.0.0.1 user abc123")
        assert log.signature == "WORD WORD IP WORD NOTSPACE"

    def test_multiple_spaces_and_tabs(self):
        log = self.tokenizer.tokenize("a  b\tc")
        assert log.texts == ["a", "b", "c"]

    def test_empty_line(self):
        log = self.tokenizer.tokenize("")
        assert log.texts == []
        assert log.timestamp_millis is None

    def test_raw_is_preserved(self):
        raw = "  padded   line "
        assert self.tokenizer.tokenize(raw).raw == raw

    def test_len(self):
        assert len(self.tokenizer.tokenize("a b c")) == 3

    def test_tokenize_many(self):
        logs = self.tokenizer.tokenize_many(["a b", "c"])
        assert [l.texts for l in logs] == [["a", "b"], ["c"]]


class TestTimestampMerging:
    def setup_method(self):
        self.tokenizer = Tokenizer()

    def test_two_token_timestamp_merges(self):
        log = self.tokenizer.tokenize("2016/02/23 09:00:31 127.0.0.1 login")
        assert log.texts[0] == "2016/02/23 09:00:31.000"
        assert log.tokens[0].datatype == "DATETIME"
        assert len(log.tokens) == 3

    def test_timestamp_millis_extracted(self):
        log = self.tokenizer.tokenize("2016/05/09 10:00:00 event")
        assert log.timestamp_millis == 1462788000000

    def test_four_token_timestamp_merges(self):
        log = self.tokenizer.tokenize("Feb 23, 2016 09:00:31 hello")
        assert log.texts == ["2016/02/23 09:00:31.000", "hello"]

    def test_first_timestamp_wins_for_event_time(self):
        log = self.tokenizer.tokenize(
            "2016/02/23 09:00:31 moved at 2016/02/23 10:00:00"
        )
        datetimes = [t for t in log.tokens if t.datatype == "DATETIME"]
        assert len(datetimes) == 2
        assert log.timestamp_millis == 1456218031000

    def test_disable_timestamp_detection(self):
        tokenizer = Tokenizer(timestamp_detector=None)
        log = tokenizer.tokenize("2016/02/23 09:00:31 x")
        assert log.timestamp_millis is None
        assert len(log.tokens) == 3

    def test_signature_property(self):
        log = self.tokenizer.tokenize("2016/02/23 09:00:31 127.0.0.1 login")
        assert log.signature == "DATETIME IP WORD"


class TestDelimiters:
    def test_custom_delimiters(self):
        tokenizer = Tokenizer(delimiters=",; ", timestamp_detector=None)
        log = tokenizer.tokenize("a,b;c d")
        assert log.texts == ["a", "b", "c", "d"]

    def test_custom_delimiters_drop_empudes(self):
        tokenizer = Tokenizer(delimiters=",", timestamp_detector=None)
        log = tokenizer.tokenize(",,a,,b,,")
        assert log.texts == ["a", "b"]


class TestSplitRules:
    def test_paper_example_123kb(self):
        """The paper's example: '123KB' splits into '123' and 'KB'."""
        tokenizer = Tokenizer(
            split_rules=[SplitRule(r"([0-9]+)(KB|MB|GB)")],
            timestamp_detector=None,
        )
        log = tokenizer.tokenize("read 123KB done")
        assert log.texts == ["read", "123", "KB", "done"]
        assert log.signature == "WORD NUMBER WORD WORD"

    def test_rule_not_matching_leaves_token(self):
        tokenizer = Tokenizer(
            split_rules=[SplitRule(r"([0-9]+)(KB)")],
            timestamp_detector=None,
        )
        assert tokenizer.tokenize("123MB").texts == ["123MB"]

    def test_first_matching_rule_wins(self):
        tokenizer = Tokenizer(
            split_rules=[
                SplitRule(r"([0-9]+)(KB)"),
                SplitRule(r"(1)(23KB)"),
            ],
            timestamp_detector=None,
        )
        assert tokenizer.tokenize("123KB").texts == ["123", "KB"]

    def test_rule_requires_two_groups(self):
        with pytest.raises(ValueError):
            SplitRule(r"[0-9]+KB")

    def test_apply_returns_none_without_match(self):
        assert SplitRule(r"(a)(b)").apply("xy") is None

    def test_apply_returns_groups(self):
        assert SplitRule(r"(a+)(b+)").apply("aabb") == ["aa", "bb"]


class TestDatatypeMemo:
    """The datatype memo never outlives the registry state it came from."""

    def test_registry_edit_reaches_a_warm_tokenizer(self):
        registry = DatatypeRegistry()
        tokenizer = Tokenizer(registry=registry)
        assert tokenizer.tokenize("job E42 done").datatypes == [
            "WORD", "NOTSPACE", "WORD",
        ]
        registry.register(
            Datatype("CODE", r"E[0-9]+", 12, parents=("NOTSPACE",))
        )
        assert tokenizer.tokenize("job E42 done").datatypes == [
            "WORD", "CODE", "WORD",
        ]
        fresh = Tokenizer(registry=registry).tokenize("job E42 done")
        assert tokenizer.tokenize("job E42 done") == fresh

    def test_registry_edit_reaches_an_unfiltered_tokenizer(self):
        registry = DatatypeRegistry()
        tokenizer = Tokenizer(
            registry=registry,
            timestamp_detector=TimestampDetector(use_filter=False),
        )
        tokenizer.tokenize("job E42 done")
        registry.register(
            Datatype("CODE", r"E[0-9]+", 12, parents=("NOTSPACE",))
        )
        assert tokenizer.tokenize("job E42 done").datatypes[1] == "CODE"
