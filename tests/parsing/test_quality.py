"""Unit tests for pattern-model quality reports."""

from repro.parsing.grok import GrokPattern
from repro.parsing.parser import PatternModel
from repro.parsing.quality import evaluate_pattern_model


def model(*exprs):
    return PatternModel(
        [
            GrokPattern.from_string(e, pattern_id=i + 1)
            for i, e in enumerate(exprs)
        ]
    )


class TestQualityReport:
    def test_full_coverage(self):
        m = model("%{WORD:w} login", "%{WORD:w} logout")
        report = evaluate_pattern_model(
            m, ["alice login", "bob logout", "carol login"]
        )
        assert report.coverage == 1.0
        assert report.usage == {1: 2, 2: 1}
        assert report.unused_patterns == []
        assert report.unparsed_examples == []

    def test_partial_coverage_and_examples(self):
        m = model("%{WORD:w} login")
        report = evaluate_pattern_model(
            m, ["alice login", "???", "also unmatched here"]
        )
        assert report.coverage == 1 / 3
        assert report.parsed_logs == 1
        assert len(report.unparsed_examples) == 2

    def test_unused_patterns_reported(self):
        m = model("%{WORD:w} login", "never matched %{NUMBER:n}")
        report = evaluate_pattern_model(m, ["a login"])
        assert report.unused_patterns == [2]

    def test_compression_ratio(self):
        m = model("%{NOTSPACE:w} login")
        report = evaluate_pattern_model(
            m, ["u%d login" % i for i in range(10)]
        )
        assert report.compression_ratio == 10.0

    def test_empty_sample(self):
        report = evaluate_pattern_model(model("%{WORD:w}"), [])
        assert report.coverage == 1.0
        assert report.compression_ratio == 0.0

    def test_max_examples_cap(self):
        m = model("nothing %{NUMBER:n}")
        report = evaluate_pattern_model(
            m, ["junk %d" % i for i in range(30)], max_examples=5
        )
        assert len(report.unparsed_examples) == 5

    def test_summary_string(self):
        m = model("%{WORD:w} login")
        report = evaluate_pattern_model(m, ["a login", "zzz !!"])
        text = report.summary()
        assert "coverage=0.500" in text
        assert "1 patterns used" in text


class TestDriftScenario:
    def test_drifted_stream_lowers_coverage(self):
        """The rebuild trigger: new formats appear, coverage drops."""
        from repro.parsing.logmine import PatternDiscoverer
        from repro.parsing.tokenizer import Tokenizer

        tokenizer = Tokenizer()
        old = ["svc request %d ok" % i for i in range(20)]
        patterns = PatternDiscoverer().discover(
            tokenizer.tokenize_many(old)
        )
        m = PatternModel(patterns)
        drifted = old[:10] + [
            "svc-v2 handled call %d in %d ms" % (i, i * 3)
            for i in range(10)
        ]
        report = evaluate_pattern_model(m, drifted)
        assert report.coverage == 0.5
        assert report.unparsed_examples
