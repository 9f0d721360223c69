"""ServiceConfig: the one construction surface for LogLensService."""

import dataclasses

import pytest

from repro.ingest import IngestLimits
from repro.obs import MetricsRegistry
from repro.service import LogLensService, ServiceConfig

from tests.service.test_loglens_service import training_lines


class TestConfigConstruction:
    def test_config_is_the_primary_path(self):
        config = ServiceConfig(
            num_partitions=2, heartbeats_enabled=False
        )
        service = LogLensService(config=config)
        assert service.config is config
        assert service.heartbeats_enabled is False
        assert len(service.parse_ctx.workers) == 2
        service.close()

    def test_loose_keywords_are_plain_type_errors(self):
        with pytest.raises(TypeError, match="num_partitions") as excinfo:
            LogLensService(num_partitions=8)
        assert type(excinfo.value) is TypeError
        with pytest.raises(TypeError, match="num_partitions"):
            LogLensService(config=ServiceConfig(), num_partitions=2)
        assert not hasattr(ServiceConfig, "from_kwargs")


class TestFrozenSemantics:
    def test_config_is_immutable(self):
        config = ServiceConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.num_partitions = 99

    def test_replace_derives_a_variant(self):
        base = ServiceConfig(num_partitions=2)
        variant = base.replace(num_partitions=8)
        assert base.num_partitions == 2
        assert variant.num_partitions == 8
        # Untouched fields carry over.
        assert variant.heartbeat_period_steps == base.heartbeat_period_steps

    def test_one_config_builds_many_services(self):
        config = ServiceConfig(
            num_partitions=2, metrics=MetricsRegistry()
        )
        first = LogLensService(config=config)
        second = LogLensService(config=config)
        first.train(training_lines())
        # The sibling is unaffected: config holds parameters, not state.
        assert first.model_storage.names() != []
        assert second.model_storage.names() == []
        first.close()
        second.close()


class TestDescribe:
    def test_describe_is_json_safe_scalars(self):
        config = ServiceConfig(
            num_partitions=5,
            storage="sqlite:/tmp/x.db",
            ingest=IngestLimits(batch_lines=7),
        )
        doc = config.describe()
        assert doc["num_partitions"] == 5
        assert doc["storage"] == "sqlite:/tmp/x.db"
        assert doc["ingest"]["batch_lines"] == 7
        assert ServiceConfig().describe()["storage"] == "memory"

    def test_ingest_limits_flow_to_the_front_door(self):
        from repro.ingest import front_door

        config = ServiceConfig(
            num_partitions=2,
            ingest=IngestLimits(batch_lines=9, max_line_bytes=123),
        )
        service = LogLensService(config=config)
        server = front_door(service)
        assert server.limits.batch_lines == 9
        assert server.limits.max_line_bytes == 123
        service.close()
