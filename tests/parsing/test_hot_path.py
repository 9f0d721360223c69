"""Regression pins for the parse-hot-path optimizations.

These tests freeze the *observable* behavior of the optimized tokenizer,
index, and parser: slot-based tokens must compare/hash like the old
dataclass values, counts published per batch or per service step must
equal the counts published per line, and the index's bitset group build
must never change which pattern claims a log.
"""

from __future__ import annotations

import pytest

from repro.baselines.logstash import NaiveGrokParser
from repro.obs import MetricsRegistry
from repro.parsing.grok import GrokPattern
from repro.parsing.index import PatternIndex
from repro.parsing.parser import FastLogParser, ParsedLog, PatternModel
from repro.parsing.timestamps import TimestampDetector, compiled_format
from repro.parsing.tokenizer import Token, Tokenizer
from repro.sequence.model import SequenceModel
from repro.service.loglens_service import LogLensService, ServiceConfig
from repro.service.model_builder import BuiltModels

_LINES = [
    "2017-03-01 10:01:02 Connect DB 127.0.0.1 user abc123",
    "2017-03-01 10:01:03 Disconnect DB 127.0.0.1 user abc123",
    "ERROR code 500 at /api/v1/items after 13 ms",
    "session 9f0b open from 10.0.0.7 port 443",
    "heartbeat",
]

_GROKS = [
    "%{DATETIME:ts} %{WORD:Action} DB %{IP:Server} user %{NOTSPACE:User}",
    "ERROR code %{NUMBER:Code} at %{NOTSPACE:Path} after "
    "%{NUMBER:Millis} ms",
    "session %{NOTSPACE:Sid} open from %{IP:Client} port %{NUMBER:Port}",
    "heartbeat",
]


def _model():
    return PatternModel(
        [
            GrokPattern.from_string(g, pattern_id=i + 1)
            for i, g in enumerate(_GROKS)
        ]
    )


class TestTokenValueSemantics:
    def test_token_equality_and_hash(self):
        a = Token("abc", "WORD")
        b = Token("abc", "WORD")
        c = Token("abc", "NOTSPACE")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != ("abc", "WORD")

    def test_tokenized_log_equality(self):
        t = Tokenizer()
        assert t.tokenize(_LINES[0]) == t.tokenize(_LINES[0])
        assert t.tokenize(_LINES[0]) != t.tokenize(_LINES[1])

    def test_expected_pinned_output(self):
        log = Tokenizer().tokenize(
            "2017-03-01 10:01:02 Connect DB 127.0.0.1 user abc123"
        )
        # The merged timestamp token is canonicalised by the detector.
        assert [t.text for t in log.tokens] == [
            "2017/03/01 10:01:02.000",
            "Connect",
            "DB",
            "127.0.0.1",
            "user",
            "abc123",
        ]
        assert log.tokens[0].datatype == "DATETIME"
        assert log.tokens[3].datatype == "IP"
        assert log.timestamp_millis is not None
        assert log.signature == " ".join(t.datatype for t in log.tokens)
        # The cached signature must not go stale on a second read.
        assert log.signature == log.signature

    def test_signature_cache_survives_copy(self):
        log = Tokenizer().tokenize(_LINES[0])
        first = log.signature
        assert log.signature is first  # cached string reused


class TestDeferredMetricsEquivalence:
    """Publishing per line, per batch or per service step counts the
    same facts."""

    _STREAM = _LINES * 3 + ["unparseable %% line"]

    def _counts(self, registry):
        return {
            name: registry.counter(name).value
            for name in (
                "tokenizer.logs",
                "tokenizer.tokens",
                "tokenizer.timestamps_detected",
                "parser.parsed",
                "parser.anomalies",
                "index.lookups",
                "index.group_hits",
                "index.group_builds",
                "index.pattern_scans",
            )
        }

    def _parser(self, registry):
        return FastLogParser(
            _model(), tokenizer=Tokenizer(metrics=registry),
            metrics=registry,
        )

    def _per_line(self):
        registry = MetricsRegistry()
        parser = self._parser(registry)
        results = [parser.parse(line) for line in self._STREAM]
        return results, self._counts(registry)

    def _one_batch(self):
        registry = MetricsRegistry()
        results = self._parser(registry).parse_batch(self._STREAM)
        return results, self._counts(registry)

    def _service(self):
        """One partition, so one worker parser and one index, as above;
        each line is its own step."""
        registry = MetricsRegistry()
        service = LogLensService(
            config=ServiceConfig(num_partitions=1, metrics=registry)
        )
        service.model_manager.register_built(
            BuiltModels(
                pattern_model=_model(), sequence_model=SequenceModel([])
            )
        )
        service.model_manager.publish_all()
        service.flush_model_updates()
        try:
            for line in self._STREAM:
                service.ingest([line], source="app")
                service.step()
        finally:
            service.close()
        return self._counts(registry)

    def test_results_and_counts_identical(self):
        line_results, line_counts = self._per_line()
        batch_results, batch_counts = self._one_batch()
        service_counts = self._service()
        assert line_counts == batch_counts == service_counts
        assert len(line_results) == len(batch_results)
        for a, b in zip(line_results, batch_results):
            assert type(a) is type(b)
            if isinstance(a, ParsedLog):
                assert a.fields == b.fields
                assert a.pattern_id == b.pattern_id

    def test_stats_facade_exact_after_flush(self):
        """The registry holds the exact counts once a step is over."""
        counts = self._service()
        assert counts["parser.parsed"] == len(_LINES) * 3
        assert counts["parser.anomalies"] == 1
        assert counts["tokenizer.logs"] == len(self._STREAM)
        assert counts["index.lookups"] == len(self._STREAM)
        assert (
            counts["index.group_hits"] + counts["index.group_builds"]
            == counts["index.lookups"]
        )

    def test_parse_batch_is_exact_at_return(self):
        registry = MetricsRegistry()
        self._parser(registry).parse_batch(_LINES)
        # No flush call: parse_batch must leave nothing pending.
        assert registry.counter("parser.parsed").value == len(_LINES)
        assert registry.counter("tokenizer.logs").value == len(_LINES)


class TestDispatchTableEquivalence:
    def test_same_pattern_claims_each_log(self):
        model = _model()
        parser = FastLogParser(model)
        naive = NaiveGrokParser(model)
        for line in _LINES:
            fast = parser.parse(line)
            slow = naive.parse(line)
            assert isinstance(fast, ParsedLog)
            assert isinstance(slow, ParsedLog)
            assert fast.pattern_id == slow.pattern_id
            assert fast.fields == slow.fields

    def test_candidate_groups_match_brute_force(self):
        from repro.parsing.matcher import is_matched_tokens

        model = _model()
        index = PatternIndex(model.patterns, model.registry)
        tokenizer = Tokenizer()
        for line in _LINES + ["unseen 1234 10.9.8.7 shape"]:
            log = tokenizer.tokenize(line)
            expected = [
                p
                for p in model.patterns
                if is_matched_tokens(
                    log.signature.split(), p.signature().split(),
                    model.registry,
                )
            ]
            expected.sort(key=GrokPattern.generality_key)
            assert index.candidate_group(log) == expected

    def test_wildcard_patterns_always_candidates(self):
        wildcard = GrokPattern.from_string(
            "%{ANYDATA:Everything}", pattern_id=99
        )
        index = PatternIndex([wildcard])
        log = Tokenizer().tokenize("absolutely anything 42")
        assert index.candidate_group(log) == [wildcard]

    def test_dispatch_filters_by_first_datatype(self):
        patterns = [
            GrokPattern.from_string(
                "ERROR %{NUMBER:Code}", pattern_id=1
            ),
            GrokPattern.from_string(
                "%{NUMBER:Code} ERROR", pattern_id=2
            ),
        ]
        metrics = MetricsRegistry()
        index = PatternIndex(patterns, metrics=metrics)
        log = Tokenizer(timestamp_detector=None).tokenize("ERROR 500")
        group = index.candidate_group(log)
        assert [p.pattern_id for p in group] == [1]
        # The position masks excluded the reversed pattern: Algorithm 1
        # never ran.
        assert metrics.counter("index.signature_comparisons").value == 0


class TestCompiledFormatCache:
    def test_shared_across_detectors(self):
        sdf = "yyyy-MM-dd HH:mm:ss"
        assert compiled_format(sdf) is compiled_format(sdf)
        a = TimestampDetector()
        b = TimestampDetector()
        fmt_a = next(f for f in a._formats if f.sdf == sdf)
        fmt_b = next(f for f in b._formats if f.sdf == sdf)
        assert fmt_a is fmt_b

    def test_add_format_uses_cache(self):
        detector = TimestampDetector(formats=[])
        detector.add_format("yyyy-MM-dd")
        assert detector._formats[0] is compiled_format("yyyy-MM-dd")


@pytest.mark.parametrize("split", [False, True])
def test_tokenize_many_counts_exact(split):
    # Counts are published once per call, so a batch fed in two calls
    # must leave the same totals as the batch fed in one.
    registry = MetricsRegistry()
    tokenizer = Tokenizer(metrics=registry)
    if split:
        logs = tokenizer.tokenize_many(_LINES[:2])
        logs += tokenizer.tokenize_many(_LINES[2:])
    else:
        logs = tokenizer.tokenize_many(_LINES)
    assert registry.counter("tokenizer.logs").value == len(_LINES)
    assert registry.counter("tokenizer.tokens").value == sum(
        len(l.tokens) for l in logs
    )
    assert registry.counter("tokenizer.timestamps_detected").value == sum(
        l.timestamp_millis is not None for l in logs
    )
