"""Unit tests for the regression-verdict logic (repro.bench.compare)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    compare_case,
    compare_dirs,
    compare_results,
    load_results,
)
from repro.bench.compare import main


def _artifact(case, median, better="lower"):
    return {
        "schema_version": 1,
        "case": case,
        "params": {},
        "repeats": 3,
        "warmup": 1,
        "unit": "seconds",
        "better": better,
        "records": 100,
        "samples": [median, median, median],
        "stats": {
            "min": median,
            "median": median,
            "mean": median,
            "p95": median,
            "max": median,
        },
        "git_sha": "deadbeef",
    }


class TestCompareCase:
    def test_exact_equality_passes(self):
        v = compare_case("c", _artifact("c", 1.0), _artifact("c", 1.0))
        assert v.status == "pass"
        assert v.regression == 0.0
        assert v.ok

    def test_within_tolerance_passes(self):
        v = compare_case(
            "c", _artifact("c", 1.0), _artifact("c", 1.2), tolerance=0.25
        )
        assert v.status == "pass"
        assert v.regression == pytest.approx(0.2)

    def test_over_tolerance_fails(self):
        v = compare_case(
            "c", _artifact("c", 1.0), _artifact("c", 1.3), tolerance=0.25
        )
        assert v.status == "fail"
        assert not v.ok

    def test_boundary_is_inclusive(self):
        # Exactly at tolerance must pass: the budget is "> tolerance".
        v = compare_case(
            "c", _artifact("c", 1.0), _artifact("c", 1.25), tolerance=0.25
        )
        assert v.status == "pass"

    def test_improvement_passes(self):
        v = compare_case("c", _artifact("c", 1.0), _artifact("c", 0.5))
        assert v.status == "pass"
        assert v.regression == pytest.approx(-0.5)

    def test_higher_is_better_direction(self):
        base = _artifact("ratio", 2.0, better="higher")
        dropped = _artifact("ratio", 1.0, better="higher")
        raised = _artifact("ratio", 3.0, better="higher")
        assert compare_case("ratio", base, dropped).status == "fail"
        assert compare_case("ratio", base, raised).status == "pass"

    def test_missing_case_fails(self):
        v = compare_case("c", _artifact("c", 1.0), None)
        assert v.status == "missing"
        assert not v.ok
        assert v.current_median is None

    def test_new_case_passes(self):
        v = compare_case("c", None, _artifact("c", 1.0))
        assert v.status == "new"
        assert v.ok
        assert v.baseline_median is None

    def test_zero_baseline_skips(self):
        v = compare_case("c", _artifact("c", 0.0), _artifact("c", 1.0))
        assert v.status == "skipped"
        assert v.ok
        assert v.regression is None

    def test_zero_baseline_zero_current_passes(self):
        v = compare_case("c", _artifact("c", 0.0), _artifact("c", 0.0))
        assert v.status == "pass"

    def test_both_absent_raises(self):
        with pytest.raises(ValueError):
            compare_case("c", None, None)

    def test_deterministic(self):
        args = ("c", _artifact("c", 1.0), _artifact("c", 1.3), 0.25)
        first = compare_case(*args)
        second = compare_case(*args)
        assert first == second


class TestCompareReport:
    def test_mixed_verdicts(self):
        baseline = {
            "a": _artifact("a", 1.0),
            "b": _artifact("b", 1.0),
            "gone": _artifact("gone", 1.0),
        }
        current = {
            "a": _artifact("a", 1.0),
            "b": _artifact("b", 9.0),
            "fresh": _artifact("fresh", 1.0),
        }
        report = compare_results(baseline, current)
        by_case = {v.case: v.status for v in report.verdicts}
        assert by_case == {
            "a": "pass",
            "b": "fail",
            "gone": "missing",
            "fresh": "new",
        }
        assert not report.ok
        assert {v.case for v in report.failures} == {"b", "gone"}
        assert "RESULT: FAIL" in report.summary()

    def test_all_pass_summary(self):
        report = compare_results(
            {"a": _artifact("a", 1.0)}, {"a": _artifact("a", 1.0)}
        )
        assert report.ok
        assert "RESULT: PASS" in report.summary()

    def test_verdicts_sorted_by_case(self):
        report = compare_results(
            {"z": _artifact("z", 1.0), "a": _artifact("a", 1.0)},
            {"z": _artifact("z", 1.0), "a": _artifact("a", 1.0)},
        )
        assert [v.case for v in report.verdicts] == ["a", "z"]


class TestDirsAndCli:
    def _write(self, directory, artifacts):
        directory.mkdir(parents=True, exist_ok=True)
        for doc in artifacts:
            path = directory / ("BENCH_%s.json" % doc["case"])
            path.write_text(json.dumps(doc))

    def test_load_results_missing_dir(self, tmp_path):
        assert load_results(tmp_path / "nope") == {}

    def test_compare_dirs(self, tmp_path):
        self._write(tmp_path / "base", [_artifact("a", 1.0)])
        self._write(tmp_path / "cur", [_artifact("a", 2.0)])
        report = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert [v.status for v in report.verdicts] == ["fail"]

    def test_cli_soft_pass_without_baseline(self, tmp_path, capsys):
        self._write(tmp_path / "cur", [_artifact("a", 1.0)])
        code = main([str(tmp_path / "base"), str(tmp_path / "cur")])
        assert code == 0
        assert "soft pass" in capsys.readouterr().out

    def test_cli_exit_codes(self, tmp_path):
        self._write(tmp_path / "base", [_artifact("a", 1.0)])
        self._write(tmp_path / "ok", [_artifact("a", 1.0)])
        self._write(tmp_path / "bad", [_artifact("a", 10.0)])
        assert main([str(tmp_path / "base"), str(tmp_path / "ok")]) == 0
        assert main([str(tmp_path / "base"), str(tmp_path / "bad")]) == 1

    def test_cli_json_output(self, tmp_path, capsys):
        self._write(tmp_path / "base", [_artifact("a", 1.0)])
        self._write(tmp_path / "cur", [_artifact("a", 1.0)])
        code = main(
            [str(tmp_path / "base"), str(tmp_path / "cur"), "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["verdicts"][0]["case"] == "a"

    def test_cli_tolerance_flag(self, tmp_path):
        self._write(tmp_path / "base", [_artifact("a", 1.0)])
        self._write(tmp_path / "cur", [_artifact("a", 1.4)])
        argv = [str(tmp_path / "base"), str(tmp_path / "cur")]
        assert main(argv) == 1
        assert main(argv + ["--tolerance", "0.5"]) == 0
