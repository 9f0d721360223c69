"""Unit tests for the LogLens facade and configuration."""

import pytest

from repro.core.anomaly import AnomalyType
from repro.core.config import LogLensConfig
from repro.core.pipeline import LogLens
from repro.parsing.parser import ParsedLog
from repro.service.config import ServiceConfig


def event_lines(eid, minute, finish=True):
    lines = [
        "2016/05/09 11:%02d:01 queue ENQUEUE ticket %s prio 9999999"
        % (minute, eid),
        "2016/05/09 11:%02d:03 handler claims ticket %s node 10.0.0.3"
        % (minute, eid),
    ]
    if finish:
        lines.append(
            "2016/05/09 11:%02d:05 queue ticket %s RESOLVED by operator"
            % (minute, eid)
        )
    return lines


def training_lines(n=10):
    lines = []
    for i in range(n):
        lines += event_lines("tk-%04d" % i, i % 55)
    return lines


class TestFit:
    def test_fit_returns_self(self):
        lens = LogLens()
        assert lens.fit(training_lines()) is lens

    def test_patterns_property(self):
        lens = LogLens().fit(training_lines())
        assert len(lens.patterns) == 3
        assert all(isinstance(p, str) for p in lens.patterns)

    def test_unfitted_raises(self):
        lens = LogLens()
        with pytest.raises(RuntimeError):
            _ = lens.pattern_model
        with pytest.raises(RuntimeError):
            lens.detect(["x"])


class TestParseAndDetect:
    def setup_method(self):
        self.lens = LogLens().fit(training_lines())

    def test_parse_single(self):
        result = self.lens.parse(event_lines("tk-z", 7)[0])
        assert isinstance(result, ParsedLog)

    def test_detect_clean_stream(self):
        assert self.lens.detect(event_lines("tk-a", 20)) == []

    def test_detect_unparsed(self):
        anomalies = self.lens.detect(["?? unparseable ??"])
        assert [a.type for a in anomalies] == [AnomalyType.UNPARSED_LOG]

    def test_detect_missing_end_with_flush(self):
        anomalies = self.lens.detect(
            event_lines("tk-b", 30, finish=False), flush_open_events=True
        )
        assert [a.type for a in anomalies] == [AnomalyType.MISSING_END]

    def test_detect_missing_end_without_flush(self):
        """The Figure 5 'without heartbeat' ablation."""
        anomalies = self.lens.detect(
            event_lines("tk-b", 30, finish=False), flush_open_events=False
        )
        assert anomalies == []

    def test_detect_carries_source(self):
        anomalies = self.lens.detect(["junk"], source="app9")
        assert anomalies[0].source == "app9"


class TestEditing:
    def test_edit_patterns_roundtrip(self):
        lens = LogLens().fit(training_lines())
        editor = lens.edit_patterns()
        editor.add_pattern("special %{WORD:w} event")
        lens.apply_pattern_edits(editor)
        result = lens.parse("special maintenance event")
        assert isinstance(result, ParsedLog)

    def test_version_bumped(self):
        lens = LogLens().fit(training_lines())
        v0 = lens.pattern_model.version
        lens.apply_pattern_edits(lens.edit_patterns())
        assert lens.pattern_model.version == v0 + 1


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        lens = LogLens().fit(training_lines())
        path = tmp_path / "model.json"
        lens.save(path)
        restored = LogLens().load(path)
        assert restored.patterns == lens.patterns
        assert len(restored.sequence_model) == len(lens.sequence_model)
        # The restored model detects the same anomalies.
        bad = event_lines("tk-q", 40, finish=False)
        assert len(restored.detect(bad)) == len(lens.detect(bad))


class TestToService:
    def test_service_carries_models(self):
        lens = LogLens().fit(training_lines())
        service = lens.to_service()
        service.ingest(event_lines("tk-s", 45), source="a")
        service.run_until_drained()
        service.final_flush()
        assert service.anomaly_storage.count() == 0

    def test_service_detects(self):
        lens = LogLens().fit(training_lines())
        service = lens.to_service()
        service.ingest(
            event_lines("tk-bad", 45, finish=False), source="a"
        )
        service.run_until_drained()
        service.final_flush()
        assert service.anomaly_storage.count() == 1

    @pytest.mark.parametrize("explicit_config", [False, True])
    def test_service_parses_with_the_lens_tokenizer(self, explicit_config):
        """A ServiceConfig without its own tokenizer gets the lens's,
        so split rules reach the service either way."""
        lens = LogLens(LogLensConfig(split_rules=[r"([0-9]+)(KB)"]))
        lens.fit(["used %dKB of disk" % i for i in range(20)])
        if explicit_config:
            service = lens.publish_to(lens.open_service(ServiceConfig()))
        else:
            service = lens.to_service()
        try:
            held_out = ["used %dKB of disk" % i for i in range(50, 60)]
            service.ingest(held_out, source="disk")
            service.run_until_drained()
            assert service.anomaly_storage.by_type("unparsed_log") == []
            assert service.anomaly_storage.count() == 0
        finally:
            service.close()


class TestConfig:
    def test_factories(self):
        config = LogLensConfig(
            split_rules=[r"([0-9]+)(KB)"],
            extra_timestamp_formats=["dd|MM|yyyy HH:mm:ss"],
            max_dist=0.2,
        )
        tokenizer = config.make_tokenizer()
        assert tokenizer.tokenize("use 5KB now").texts == \
            ["use", "5", "KB", "now"]
        assert len(tokenizer.timestamp_detector.formats) == 90
        assert config.make_discoverer().max_dist == 0.2
        learner = config.make_learner()
        assert learner.min_events == 2

    def test_config_flows_into_lens(self):
        config = LogLensConfig(max_dist=0.0)
        lens = LogLens(config)
        lens.fit(["job alpha done", "job beta done"])
        assert len(lens.patterns) == 2


class TestCustomDatatypes:
    def test_custom_datatype_becomes_field(self):
        from repro.core.config import CustomDatatype, LogLensConfig
        from repro.core.pipeline import LogLens

        config = LogLensConfig(
            custom_datatypes=[
                CustomDatatype(
                    "MAC", r"(?:[0-9a-f]{2}:){5}[0-9a-f]{2}", generality=12
                )
            ]
        )
        lens = LogLens(config)
        lens.fit(
            [
                "port up device aa:bb:cc:dd:ee:%02x speed fast" % i
                for i in range(5)
            ]
        )
        assert any("%{MAC:" in p for p in lens.patterns), lens.patterns

    def test_custom_datatype_covered_by_parent(self):
        from repro.core.config import CustomDatatype, LogLensConfig

        config = LogLensConfig(
            custom_datatypes=[CustomDatatype("TAG", r"#[a-z]+")]
        )
        registry = config.make_registry()
        assert registry.infer("#alpha") == "TAG"
        assert registry.is_covered("TAG", "NOTSPACE")

    def test_no_custom_datatypes_uses_shared_registry(self):
        from repro.core.config import LogLensConfig
        from repro.parsing.datatypes import DEFAULT_REGISTRY

        assert LogLensConfig().make_registry() is DEFAULT_REGISTRY
