"""Unit tests for the benchmark harness primitives."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchCase,
    CaseResult,
    Measurement,
    measure,
    percentile,
    run_case,
    summarize,
)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_p0_is_min_p100_is_max(self):
        samples = [5.0, 1.0, 9.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 9.0

    def test_single_sample(self):
        assert percentile([7.0], 95) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSummarize:
    def test_all_keys(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert set(stats) == {"min", "median", "mean", "p95", "max"}
        assert stats["min"] == 1.0
        assert stats["median"] == 2.0
        assert stats["mean"] == 2.0
        assert stats["max"] == 3.0


class TestMeasure:
    def test_repeats_counted(self):
        calls = []
        m = measure(lambda: calls.append(1), repeats=4, warmup=2)
        assert len(calls) == 6
        assert len(m.samples) == 4
        assert len(m.warmup_samples) == 2

    def test_warmup_excluded_from_stats(self):
        # The warmup iterations run but their timings must not leak into
        # the reported samples: make warmup artificially slow.
        import time as _time

        state = {"first": True}

        def fn():
            if state["first"]:
                state["first"] = False
                _time.sleep(0.05)

        m = measure(fn, repeats=3, warmup=1)
        assert m.warmup_samples[0] >= 0.05
        assert all(s < 0.05 for s in m.samples)
        assert m.median < 0.05

    def test_zero_warmup(self):
        m = measure(lambda: None, repeats=2, warmup=0)
        assert m.warmup_samples == []
        assert len(m.samples) == 2

    def test_per_record(self):
        m = Measurement(samples=[2.0, 4.0], warmup_samples=[])
        assert m.per_record(2) == 1.5
        assert m.per_record(0) == 0.0


class TestRunCase:
    def test_setup_runs_once_and_feeds_run(self):
        setups = []

        def setup():
            setups.append(1)
            return {"n": 41}

        case = BenchCase(
            name="t",
            setup=setup,
            run=lambda state: state["n"] + 1,
            records=7,
        )
        result = run_case(case, repeats=3, warmup=1)
        assert setups == [1]
        assert result.records == 7
        assert len(result.samples) == 3

    def test_check_sees_last_run_result(self):
        seen = {}

        case = BenchCase(
            name="t",
            setup=lambda: None,
            run=lambda state: "payload",
            check=lambda state, last: seen.setdefault("last", last),
            records=1,
        )
        run_case(case, repeats=2, warmup=0)
        assert seen["last"] == "payload"

    def test_check_failure_propagates(self):
        def bad_check(state, last):
            raise AssertionError("wrong output")

        case = BenchCase(
            name="t",
            setup=lambda: None,
            run=lambda state: None,
            check=bad_check,
            records=1,
        )
        with pytest.raises(AssertionError):
            run_case(case, repeats=1, warmup=0)

    def test_callable_records(self):
        case = BenchCase(
            name="t",
            setup=lambda: {"items": [1, 2, 3]},
            run=lambda state: None,
            records=lambda state: len(state["items"]),
        )
        result = run_case(case, repeats=1, warmup=0)
        assert result.records == 3


class TestCaseResult:
    def _result(self):
        case = BenchCase(
            name="roundtrip",
            setup=lambda: None,
            run=lambda state: None,
            params={"size": 10},
            records=10,
        )
        return run_case(case, repeats=2, warmup=1)

    def test_artifact_schema(self, tmp_path):
        result = self._result()
        path = result.write(tmp_path)
        assert path.name == "BENCH_roundtrip.json"
        doc = json.loads(path.read_text())
        for key in (
            "schema_version",
            "case",
            "params",
            "repeats",
            "warmup",
            "unit",
            "better",
            "records",
            "samples",
            "stats",
            "git_sha",
        ):
            assert key in doc, key
        assert doc["schema_version"] == 1
        assert doc["case"] == "roundtrip"
        assert doc["params"] == {"size": 10}
        assert doc["stats"]["median"] == result.median

    def test_round_trip(self):
        result = self._result()
        clone = CaseResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()

    def test_records_per_second(self):
        result = self._result()
        if result.median > 0:
            assert result.records_per_second == pytest.approx(
                10 / result.median
            )

    def test_ratio_artifact_omits_record_fields(self):
        """A ratio case processes no records of its own; ``records: 0``
        in the artifact would read as a broken workload."""
        case = BenchCase(
            name="speedup",
            setup=lambda: None,
            run=lambda state: None,
            unit="ratio",
            better="higher",
        )
        doc = run_case(case, repeats=2, warmup=0).to_dict()
        assert "records" not in doc
        assert "records_per_second" not in doc
        assert doc["unit"] == "ratio"

    def test_ratio_artifact_round_trips(self):
        case = BenchCase(
            name="speedup",
            setup=lambda: None,
            run=lambda state: None,
            unit="ratio",
            better="higher",
        )
        result = run_case(case, repeats=2, warmup=0)
        clone = CaseResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()


class TestBuildCaseOverrides:
    def test_unknown_override_rejected(self):
        from repro.bench.cases import build_cases

        with pytest.raises(ValueError, match="engine_batch_record_typo"):
            build_cases(quick=True, overrides={"engine_batch_record_typo": 1})

    def test_override_lands_in_case_params(self):
        from repro.bench.cases import build_cases

        cases = {
            c.name: c
            for c in build_cases(
                quick=True, overrides={"engine_batch_records": 256}
            )
        }
        assert cases["engine_shm"].params["engine_batch_records"] == 256
        assert cases["engine_serial"].params["engine_batch_records"] == 256
        assert cases["engine_shm"].params["transport"] == "shm"
