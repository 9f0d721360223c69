"""The layer table knows every module of ``src/repro`` exactly once."""

import os

import pytest

import tracing
from conftest import ROOT

REPRO = os.path.join(ROOT, "src", "repro")


def test_every_module_maps_to_exactly_one_layer():
    modules = list(tracing.repro_modules(REPRO))
    assert len(modules) > 90
    unknown = {
        module: tracing.layer_matches(module)
        for module in modules
        if len(tracing.layer_matches(module)) != 1
    }
    assert not unknown, (
        "classify these modules in perf/tracing.py LAYER_TABLE: %r" % unknown
    )


def test_every_table_entry_still_names_something():
    modules = list(tracing.repro_modules(REPRO))
    for entry in tracing.LAYER_TABLE:
        assert any(entry in tracing.layer_matches(m) for m in modules), entry


def test_table_only_names_known_layers():
    assert set(tracing.LAYER_TABLE.values()) <= set(tracing.LAYERS)
    # Every layer but ``ingest``-less ones has at least one module.
    assert set(tracing.LAYER_TABLE.values()) == set(tracing.LAYERS)


def test_a_new_module_fails_loudly():
    with pytest.raises(KeyError):
        tracing.layer_of("service/brand_new_module")
    assert tracing.layer_of("parsing/matcher") == "parsing.index"
    assert tracing.layer_of("service/sqlite_store") == "service.storage"
    assert tracing.layer_of("streaming/engine") == "streaming"
