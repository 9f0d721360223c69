"""Span recorder and layer ledger on toy inputs."""

import os

import tracing
from conftest import ROOT


class _Toy:
    def __init__(self):
        self.observed = 0

    def observe(self, value):
        self.observed += value

    def cycle(self):
        return "cycled"

    def step(self):
        self.cycle()
        for i in range(5):
            self.observe(i)
        self.cycle()
        self.observe(1)


def _recorded():
    toy = _Toy()
    recorder = tracing.SpanRecorder()
    recorder.wrap(toy, "step", "service.step", is_step=True)
    recorder.wrap(toy, "cycle", "log_manager.cycle")
    recorder.wrap(toy, "observe", "heartbeat.observe", coalesce=True)
    toy.step()
    toy.step()
    return toy, recorder


def test_spans_nest_and_share_the_step_id():
    toy, recorder = _recorded()
    assert toy.observed == 22
    assert tracing.check_spans(recorder.spans) == []
    names = [row[0] for row in recorder.spans]
    # Five consecutive observes coalesce; the one after ``cycle`` does not
    # join them.
    assert names[:5] == [
        "service.step", "log_manager.cycle", "heartbeat.observe",
        "log_manager.cycle", "heartbeat.observe",
    ]
    assert recorder.spans[2][5] == 5 and recorder.spans[4][5] == 1
    assert {row[4] for row in recorder.spans[:5]} == {1}
    assert {row[4] for row in recorder.spans[5:]} == {2}
    assert all(row[3] == 0 for row in recorder.spans[1:5])


def test_step_phases_partition_the_step():
    _toy, recorder = _recorded()
    phases = tracing.step_phases(recorder.spans)
    assert sorted(phases) == [1, 2]
    for step in phases.values():
        named = sum(step[p] for p in tracing.STEP_PHASES)
        assert abs(named - step["total"]) < 1e-9
        assert 0 < step["covered"] <= step["total"]
        assert step["cycle"] > 0 and step["observe"] > 0


def test_check_spans_reports_a_broken_nesting():
    _toy, recorder = _recorded()
    recorder.spans[1][2] = recorder.spans[0][2] + 1.0  # child outlives step
    recorder.spans[2][4] = 99  # wrong step id
    problems = tracing.check_spans(recorder.spans)
    assert any("not nested" in p for p in problems)
    assert any("step id" in p for p in problems)


def test_spans_file_is_one_json_object_per_line(tmp_path):
    import json

    _toy, recorder = _recorded()
    path = str(tmp_path / "out" / "toy.spans.jsonl")
    recorder.write(path)
    rows = [json.loads(line) for line in open(path)]
    assert len(rows) == len(recorder.spans)
    assert rows[0]["name"] == "service.step" and rows[0]["parent"] is None
    assert rows[1]["parent"] == 0 and rows[1]["step"] == 1


def test_ledger_charges_foreign_time_to_the_calling_layer():
    repro = os.path.join(ROOT, "src", "repro")
    parser = (os.path.join(repro, "parsing", "parser.py"), 10, "parse")
    stamps = (os.path.join(repro, "parsing", "timestamps.py"), 20, "identify")
    bench = ("/somewhere/perf/child.py", 5, "offer")
    regex = ("~", 0, "<method 'fullmatch' of 're.Pattern' objects>")
    sleep = ("~", 0, "<built-in method time.sleep>")
    # func -> (cc, nc, tt, ct, callers{caller: (nc, cc, tt, ct)})
    stats = {
        bench: (1, 1, 0.5, 10.0, {}),
        parser: (100, 100, 2.0, 9.0, {bench: (100, 100, 2.0, 9.0)}),
        stamps: (300, 300, 3.0, 7.0, {parser: (300, 300, 3.0, 7.0)}),
        regex: (
            900, 900, 4.0, 4.0,
            {stamps: (600, 600, 3.0, 3.0), parser: (300, 300, 1.0, 1.0)},
        ),
        sleep: (3, 3, 0.5, 0.5, {bench: (3, 3, 0.5, 0.5)}),
    }
    ledger, idle = tracing.layer_ledger(stats, repro)
    assert idle == 0.5
    assert ledger["parsing.timestamps"]["self_s"] == 3.0 + 3.0
    assert ledger["parsing.parser"]["self_s"] == 2.0 + 1.0
    assert ledger["parsing.timestamps"]["calls"] == 300
    assert ledger["other"]["self_s"] == 0.5
    total = sum(row["self_s"] for row in ledger.values()) + idle
    assert abs(total - sum(row[2] for row in stats.values())) < 1e-9
