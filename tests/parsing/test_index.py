"""Unit tests for the candidate-pattern-group index."""

from repro.obs import MetricsRegistry
from repro.parsing.grok import GrokPattern
from repro.parsing.index import PatternIndex
from repro.parsing.tokenizer import Tokenizer

TOKENIZER = Tokenizer()


def tl(raw):
    return TOKENIZER.tokenize(raw)


def patterns(*exprs):
    return [
        GrokPattern.from_string(e, pattern_id=i + 1)
        for i, e in enumerate(exprs)
    ]


class TestLookup:
    def test_basic_hit(self):
        index = PatternIndex(patterns("%{WORD:w} login %{NOTSPACE:u}"))
        hit = index.lookup(tl("alice login u-1"))
        assert hit is not None
        pattern, fields = hit
        assert pattern.pattern_id == 1
        assert fields == {"w": "alice", "u": "u-1"}

    def test_miss_returns_none(self):
        index = PatternIndex(patterns("%{WORD:w} login"))
        assert index.lookup(tl("something else entirely here")) is None

    def test_group_memoised(self):
        metrics = MetricsRegistry()
        index = PatternIndex(
            patterns("%{WORD:w} login %{NOTSPACE:u}"), metrics=metrics
        )
        index.lookup(tl("alice login u-1"))
        index.lookup(tl("bob login u-2"))
        assert metrics.counter("index.group_builds").value == 1
        assert metrics.counter("index.group_hits").value == 1

    def test_empty_group_memoised(self):
        """Repeated unparseable shapes must not rescan all patterns."""
        metrics = MetricsRegistry()
        index = PatternIndex(patterns("%{WORD:w} login"), metrics=metrics)
        comparisons = metrics.counter("index.signature_comparisons")
        builds = metrics.counter("index.group_builds")
        index.lookup(tl("a b c d"))
        before = comparisons.value
        built = builds.value
        index.lookup(tl("e f g h"))
        assert comparisons.value == before
        # Algorithm 1 runs only for wildcard patterns, so the comparison
        # count alone would pass here without memoisation.
        assert builds.value == built

    def test_most_specific_pattern_wins(self):
        """Section III-B step 2: groups sorted ascending by generality."""
        index = PatternIndex(
            patterns(
                "%{NOTSPACE:generic} login",
                "%{WORD:word} login",
            )
        )
        hit = index.lookup(tl("alice login"))
        assert hit is not None
        assert hit[0].pattern_id == 2  # the WORD pattern is more specific

    def test_literal_beats_field(self):
        index = PatternIndex(
            patterns("%{WORD:w} login", "admin login")
        )
        hit = index.lookup(tl("admin login"))
        assert hit is not None
        assert hit[0].pattern_id == 2

    def test_wildcard_pattern_reachable_from_any_length(self):
        index = PatternIndex(patterns("BEGIN %{ANYDATA:rest}"))
        for raw in ("BEGIN", "BEGIN a", "BEGIN a b c d"):
            assert index.lookup(tl(raw)) is not None

    def test_candidate_group_contents(self):
        index = PatternIndex(
            patterns(
                "%{NOTSPACE:g} login",
                "%{WORD:w} login",
                "%{WORD:w} logout",
            )
        )
        # Signatures are datatype-level, so pattern 3 (whose 'logout'
        # literal is also a WORD) belongs to the group; literal identity
        # is only checked at match time.  Most-specific patterns first.
        group = index.candidate_group(tl("alice login"))
        assert [p.pattern_id for p in group] == [2, 3, 1]

    def test_len(self):
        assert len(PatternIndex(patterns("a", "b"))) == 2

    def test_coverage_lookup(self):
        """A NUMBER token must reach a NOTSPACE-fielded pattern."""
        index = PatternIndex(patterns("val %{NOTSPACE:v}"))
        hit = index.lookup(tl("val 123"))
        assert hit is not None
        assert hit[1] == {"v": "123"}

    def test_equal_results_with_and_without_index(self):
        """The index is an accelerator: results equal a full scan."""
        ps = patterns(
            "%{DATETIME:t} %{IP:ip} login %{NOTSPACE:u}",
            "%{DATETIME:t} worker %{NUMBER:n} done",
            "ERROR %{ANYDATA:msg}",
        )
        index = PatternIndex(ps)
        lines = [
            "2016/02/23 09:00:31 10.0.0.1 login u1",
            "2016/02/23 09:00:32 worker 7 done",
            "ERROR disk on fire",
            "unmatched line here",
        ]
        for raw in lines:
            log = tl(raw)
            via_index = index.lookup(log)
            by_scan = None
            for p in sorted(ps, key=GrokPattern.generality_key):
                fields = p.match(log)
                if fields is not None:
                    by_scan = (p, fields)
                    break
            assert (via_index is None) == (by_scan is None), raw
            if via_index is not None:
                assert via_index[0].pattern_id == by_scan[0].pattern_id
                assert via_index[1] == by_scan[1]
