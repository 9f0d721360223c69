"""Unit + property tests for LogMine-style pattern discovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parsing.logmine import (
    PatternDiscoverer,
    join_datatypes,
    log_distance,
)
from repro.parsing.tokenizer import Tokenizer

TOKENIZER = Tokenizer()


def tls(*lines):
    return TOKENIZER.tokenize_many(list(lines))


class TestDistance:
    def test_identical_logs(self):
        a, b = tls("x y z", "x y z")
        assert log_distance(a, b) == 0.0

    def test_disjoint_logs(self):
        a, b = tls("alpha beta", "123 456")
        # WORD vs NUMBER at both positions: no score at all.
        assert log_distance(a, b) == 1.0

    def test_same_datatype_scores_k2(self):
        a, b = tls("alpha beta", "alpha gamma")
        # One identical token (k1=1), one same-WORD token (k2=0.5).
        assert log_distance(a, b) == pytest.approx(1 - 1.5 / 2)

    def test_structured_variable_types_score_k1(self):
        a, b = tls("10.0.0.1 up", "10.0.0.2 up")
        assert log_distance(a, b) == 0.0

    def test_length_mismatch_penalised(self):
        a, b = tls("x y z w", "x y")
        assert log_distance(a, b) == pytest.approx(1 - 2 / 4)

    def test_empty_logs(self):
        a, b = tls("", "")
        assert log_distance(a, b) == 0.0

    def test_early_abandon_returns_one(self):
        a, b = tls("a b c d e f g h", "1 2 3 4 5 6 7 8")
        assert log_distance(a, b, max_dist=0.1) == 1.0

    def test_symmetry(self):
        a, b = tls("x 10.0.0.1 run", "y 10.0.0.2 run extra")
        assert log_distance(a, b) == pytest.approx(log_distance(b, a))


class TestJoinDatatypes:
    def test_same(self):
        assert join_datatypes("WORD", "WORD") == "WORD"

    def test_coverage_up(self):
        assert join_datatypes("WORD", "NOTSPACE") == "NOTSPACE"
        assert join_datatypes("NOTSPACE", "WORD") == "NOTSPACE"

    def test_siblings_join_at_notspace(self):
        assert join_datatypes("WORD", "NUMBER") == "NOTSPACE"
        assert join_datatypes("IP", "HEX") == "NOTSPACE"

    def test_datetime_joins_at_anydata(self):
        assert join_datatypes("DATETIME", "WORD") == "ANYDATA"


class TestDiscovery:
    def test_paper_example_pattern(self):
        """Section III-A3: the login log produces the paper's pattern."""
        logs = tls(
            "2016/02/23 09:00:31 127.0.0.1 login user1",
            "2016/02/23 09:01:02 10.0.0.5 login user1",
        )
        patterns = PatternDiscoverer().discover(logs)
        assert len(patterns) == 1
        assert patterns[0].to_string() == (
            "%{DATETIME:P1F1} %{IP:P1F2} login user1"
        )

    def test_varying_word_becomes_field(self):
        logs = tls(
            "2016/02/23 09:00:31 127.0.0.1 login user1",
            "2016/02/23 09:01:02 10.0.0.5 logout user1",
        )
        patterns = PatternDiscoverer().discover(logs)
        assert len(patterns) == 1
        assert "%{WORD:P1F3}" in patterns[0].to_string()

    def test_different_shapes_make_different_patterns(self):
        logs = tls(
            "alpha beta gamma",
            "one 22 three four five",
        )
        patterns = PatternDiscoverer().discover(logs)
        assert len(patterns) == 2

    def test_pattern_ids_sequential(self):
        logs = tls("a b", "c d e", "f g h i")
        patterns = PatternDiscoverer(max_dist=0.0).discover(logs)
        assert [p.pattern_id for p in patterns] == [1, 2, 3]

    def test_rename_heuristics_applied(self):
        logs = tls("worker PDU = 17", "worker PDU = 99")
        patterns = PatternDiscoverer().discover(logs)
        assert patterns[0].to_string() == "worker PDU = %{NUMBER:PDU}"

    def test_max_dist_zero_requires_identical_literals(self):
        logs = tls("job alpha done", "job beta done")
        strict = PatternDiscoverer(max_dist=0.0).discover(logs)
        assert len(strict) == 2
        loose = PatternDiscoverer(max_dist=0.5).discover(logs)
        assert len(loose) == 1

    def test_invalid_max_dist(self):
        with pytest.raises(ValueError):
            PatternDiscoverer(max_dist=1.5)

    def test_every_training_log_matches_a_pattern(self):
        """Closure: discovery must cover its own training set."""
        lines = [
            "2016/02/23 09:00:31 10.0.0.%d login user%d" % (i, i)
            for i in range(1, 9)
        ] + [
            "worker-%d finished 12%d jobs" % (i, i) for i in range(5)
        ]
        logs = TOKENIZER.tokenize_many(lines)
        patterns = PatternDiscoverer().discover(logs)
        for log in logs:
            assert any(p.match(log) is not None for p in patterns), log.raw

    def test_onepass_mode_also_covers_training_set(self):
        lines = [
            "connect db 10.0.0.%d port 5432" % i for i in range(1, 6)
        ] + ["disconnect client %d" % i for i in range(100, 105)]
        logs = TOKENIZER.tokenize_many(lines)
        patterns = PatternDiscoverer(bucketed=False).discover(logs)
        for log in logs:
            assert any(p.match(log) is not None for p in patterns), log.raw

    def test_onepass_variable_lengths_use_wildcard(self):
        lines = [
            "query ran with args a b c",
            "query ran with args a",
        ]
        logs = TOKENIZER.tokenize_many(lines)
        patterns = PatternDiscoverer(
            bucketed=False, max_dist=0.5
        ).discover(logs)
        assert len(patterns) == 1
        assert patterns[0].has_wildcard
        for log in logs:
            assert patterns[0].match(log) is not None

    def test_cluster_sizes(self):
        logs = tls("a b", "a b", "a b", "x 1 2")
        clusters = PatternDiscoverer().cluster(logs)
        assert sorted(c.size for c in clusters) == [1, 3]


class TestDiscoveryProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["open", "close", "read", "write"]),
                st.integers(min_value=0, max_value=99999),
                st.sampled_from(["alpha", "beta", "gamma"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_training_closure_property(self, rows):
        """Every training log parses under some discovered pattern."""
        lines = [
            "%s file %d owner %s" % (verb, num, owner)
            for verb, num, owner in rows
        ]
        logs = TOKENIZER.tokenize_many(lines)
        patterns = PatternDiscoverer().discover(logs)
        for log in logs:
            assert any(p.match(log) is not None for p in patterns)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_identical_lines_one_pattern(self, n):
        logs = TOKENIZER.tokenize_many(["same line again"] * n)
        patterns = PatternDiscoverer().discover(logs)
        assert len(patterns) == 1
        assert patterns[0].to_string() == "same line again"
