"""Unit tests for the stateless fast parser and the pattern model."""

from repro.core.anomaly import Anomaly, AnomalyType
from repro.obs import MetricsRegistry
from repro.parsing.grok import GrokPattern
from repro.parsing.parser import FastLogParser, ParsedLog, PatternModel
from repro.parsing.tokenizer import Tokenizer


def model(*exprs):
    return PatternModel(
        [
            GrokPattern.from_string(e, pattern_id=i + 1)
            for i, e in enumerate(exprs)
        ]
    )


class TestPatternModel:
    def test_roundtrip(self):
        m = model("%{WORD:w} login", "ERROR %{ANYDATA:msg}")
        m2 = PatternModel.from_dict(m.to_dict())
        assert len(m2) == 2
        assert [p.to_string() for p in m2.patterns] == [
            p.to_string() for p in m.patterns
        ]
        assert [p.pattern_id for p in m2.patterns] == [1, 2]

    def test_version_preserved(self):
        m = PatternModel([], version=7)
        assert PatternModel.from_dict(m.to_dict()).version == 7


class TestParsing:
    def setup_method(self):
        self.metrics = MetricsRegistry()
        self.parser = FastLogParser(
            model(
                "%{DATETIME:ts} %{IP:ip} login %{NOTSPACE:user}",
                "%{DATETIME:ts} count = %{NUMBER:n}",
            ),
            metrics=self.metrics,
        )

    def count(self, name):
        return self.metrics.counter("parser." + name).value

    def test_parse_success(self):
        result = self.parser.parse("2016/02/23 09:00:31 10.0.0.1 login bob")
        assert isinstance(result, ParsedLog)
        assert result.pattern_id == 1
        assert result.fields["user"] == "bob"
        assert result.fields["ts"] == "2016/02/23 09:00:31.000"
        assert result.timestamp_millis == 1456218031000

    def test_parse_json_output(self):
        result = self.parser.parse("2016/02/23 09:00:31 count = 5")
        assert result.to_dict() == {
            "ts": "2016/02/23 09:00:31.000", "n": "5"
        }

    def test_unparsed_is_anomaly(self):
        """Unparseable logs are the stateless anomaly (Section III-B)."""
        result = self.parser.parse("no pattern matches this line at all")
        assert isinstance(result, Anomaly)
        assert result.type is AnomalyType.UNPARSED_LOG
        assert result.logs == ["no pattern matches this line at all"]

    def test_source_is_carried(self):
        ok = self.parser.parse(
            "2016/02/23 09:00:31 count = 5", source="app1"
        )
        bad = self.parser.parse("garbage", source="app1")
        assert ok.source == "app1"
        assert bad.source == "app1"

    def test_stats(self):
        self.parser.parse("2016/02/23 09:00:31 count = 5")
        self.parser.parse("garbage")
        assert self.count("parsed") == 1
        assert self.count("anomalies") == 1

    def test_parse_stream_is_lazy(self):
        stream = self.parser.parse_stream(iter(["garbage"]))
        assert self.count("anomalies") == 0
        list(stream)
        assert self.count("anomalies") == 1

    def test_parse_all(self):
        results = self.parser.parse_all(
            ["2016/02/23 09:00:31 count = 1", "junk"]
        )
        assert isinstance(results[0], ParsedLog)
        assert isinstance(results[1], Anomaly)

    def test_plain_pattern_sequence_accepted(self):
        parser = FastLogParser(
            [GrokPattern.from_string("%{WORD:w}", pattern_id=1)]
        )
        assert isinstance(parser.parse("hello"), ParsedLog)


class TestModelSwap:
    def test_model_update_changes_behaviour(self):
        parser = FastLogParser(model("%{WORD:w} one"))
        assert isinstance(parser.parse("x one"), ParsedLog)
        assert isinstance(parser.parse("x two"), Anomaly)
        parser.model = model("%{WORD:w} two")
        assert isinstance(parser.parse("x two"), ParsedLog)
        assert isinstance(parser.parse("x one"), Anomaly)

    def test_swap_resets_index(self):
        parser = FastLogParser(model("%{WORD:w} one"))
        parser.parse("x one")
        old_index = parser.index
        parser.model = model("%{WORD:w} one")
        assert parser.index is not old_index


class TestTrainTestClosure:
    def test_discovered_patterns_parse_training_logs(self):
        """The Table IV sanity check: train == test → zero anomalies."""
        from repro.parsing.logmine import PatternDiscoverer

        tokenizer = Tokenizer()
        lines = [
            "2016/02/23 09:%02d:%02d 10.0.0.%d login user%d"
            % (i % 60, i % 60, i % 200 + 1, i)
            for i in range(200)
        ] + [
            "2016/02/23 09:00:%02d worker %d finished batch %d"
            % (i % 60, i, i * 3)
            for i in range(100)
        ]
        tokenized = tokenizer.tokenize_many(lines)
        patterns = PatternDiscoverer().discover(tokenized)
        metrics = MetricsRegistry()
        parser = FastLogParser(
            PatternModel(patterns), tokenizer=tokenizer, metrics=metrics
        )
        results = parser.parse_all(lines)
        assert all(isinstance(r, ParsedLog) for r in results)
        assert metrics.counter("parser.anomalies").value == 0
