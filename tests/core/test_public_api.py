"""Guard the public API surface: imports users rely on must not drift."""

import importlib

import pytest

_EXPECTED = {
    "repro": [
        "LogLens", "LogLensConfig", "Anomaly", "AnomalyType", "Severity",
        "FastLogParser", "GrokPattern", "ParsedLog", "PatternDiscoverer",
        "PatternModel", "TimestampDetector", "Tokenizer", "Automaton",
        "IdFieldDiscovery", "LogSequenceDetector", "SequenceModel",
        "SequenceModelLearner", "LogLensService", "ModelBuilder",
        "ServiceReport", "LogLensError", "OperatorError",
        "QuarantinedRecordError", "TopicNotFoundError", "BroadcastError",
        "FaultInjected", "FaultPlan", "ManualClock",
        "SystemClock", "QuarantinedRecord", "RetryPolicy",
        "__version__",
    ],
    "repro.core": [
        "LogLens", "LogLensConfig", "CustomDatatype", "Anomaly",
        "AnomalyType", "Severity", "AnomalyCluster", "cluster_anomalies",
        "EvaluationResult", "evaluate_detection", "MultiSourceLogLens",
    ],
    "repro.parsing": [
        "Tokenizer", "SplitRule", "TokenizedLog", "Token",
        "TimestampDetector", "TimestampFormat", "build_default_formats",
        "CANONICAL_FORMAT", "GrokPattern", "Literal", "Field",
        "CompiledGrok", "PatternDiscoverer", "LogCluster",
        "HierarchyDiscoverer", "PatternHierarchy", "PatternIndex",
        "FastLogParser", "PatternModel", "ParsedLog",
        "assign_field_ids", "heuristic_rename", "PatternSetEditor",
        "rename_field", "specialize_field", "generalize_literal",
        "set_field_datatype", "merge_into_anydata", "LineAssembler",
        "suggest_pattern", "suggest_pattern_from_examples",
        "PatternQualityReport", "evaluate_pattern_model",
        "log_distance", "join_datatypes", "DatatypeRegistry", "Datatype",
    ],
    "repro.sequence": [
        "IdFieldDiscovery", "IdFieldGroup", "SequenceModelLearner",
        "SequenceModel", "Automaton", "StateRule", "LogSequenceDetector",
        "OpenEvent", "SeverityPolicy", "DefaultSeverityPolicy",
    ],
    "repro.streaming": [
        "StreamingContext", "DStream", "Collector", "StreamRecord",
        "heartbeat_record", "BroadcastManager", "BroadcastVariable",
        "BlockManager", "StateMap", "EngineMetrics", "BatchMetrics",
        "CollectedRecords", "QuarantinedRecord",
        "RetryPolicy",
    ],
    "repro.obs": [
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "timed",
        "get_registry", "set_registry", "render_table",
        "DEFAULT_LATENCY_BUCKETS",
    ],
    "repro.service": [
        "LogLensService", "FleetService", "MessageBus", "Consumer",
        "ReplayAgent", "FileTailAgent", "LogManager", "LogStorage",
        "ModelStorage", "AnomalyStorage", "HeartbeatController",
        "ModelBuilder", "ModelManager", "ModelController",
        "Dashboard", "AdHocQuery", "SimulatedScheduler",
        "RelearnAutomation", "replay", "ReplayOutcome", "ServiceReport",
        "QuarantineReport", "StepReport", "dead_letter_topic",
        "ServiceConfig",
    ],
    "repro.ingest": [
        "IngestClient", "SendReport", "IngestLimits", "INGEST_STAGE",
        "IngestServer", "IngestServerThread", "front_door",
        "service_pending",
    ],
    "repro.baselines": [
        "NaiveGrokParser", "LinearScanTimestampDetector",
        "make_linear_scan_detector", "make_optimized_detector",
    ],
    "repro.datasets": [
        "generate_d1", "generate_d2", "generate_d3", "generate_d4",
        "generate_d5", "generate_d6", "generate_ss7", "generate_sql_app",
        "EventStreamGenerator", "WorkflowSpec", "StateSpec",
        "TemplateCorpus", "read_log_file", "split_train_test",
        "split_by_time",
    ],
}


@pytest.mark.parametrize("module_name", sorted(_EXPECTED))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in _EXPECTED[module_name]
        if not hasattr(module, name)
    ]
    assert not missing, "%s lacks %s" % (module_name, missing)


def test_cli_entry_point():
    from repro.cli import build_parser, main  # noqa: F401

    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert set(commands) == {
        "train", "detect", "inspect", "parse", "watch", "quality",
        "metrics", "chaos", "bench", "query", "serve", "config",
        "alerts",
    }


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
