"""The pipeline benchmark: one command, every metric, outputs checked.

    python3 perf/run.py [--workload W] [--seed S] [--seconds N] [--trace 0|1]

A *run* of a workload is: one ``prepare`` child (seeded inputs written
once, reference anomalies computed by the ``LogLens`` facade), then R
*rounds*, each a fresh child process (``PYTHONHASHSEED=0``) that sets
the service up and replays exactly those bytes.  This file only
orchestrates and estimates: it never imports ``repro``.

``--trace 0`` (default) reports the end-to-end metrics from R measured
rounds.  ``--trace 1`` reports the per-layer metrics from one measured,
one span-traced and one profiled round; the two kinds of number never
mix.  The last stdout line is the result as one JSON object.

README.md explains the protocol and why each estimator exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from child import PACED_BATCH_LINES, PACED_HZ  # noqa: E402

DEFAULT_SEED = 7
DEFAULT_SECONDS = 12
#: Measured rounds per run.  ``socket`` rounds are twice as long (a
#: fixed-rate phase cannot be hurried), so it gets the minimum of three.
ROUNDS = {"events": 4, "formats": 4, "durable": 4, "socket": 3}
SETUP_PHASES = (
    "import", "build_models", "construct_publish", "listen", "warmup",
)
CHILD_TIMEOUT_SECONDS = 170
#: The layers partition the profile's total self time exactly; that
#: total falls 2-2.5 % short of the wall clock around the profiled
#: region (the profiler's own bookkeeping between its clock reads).
LEDGER_CLOSURE_TOLERANCE = 0.05

#: name -> unit, in BENCHMARK.json order.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "logs_per_s": "1/s",
    "cpu_us_per_log": "us",
    "detect_ms_p50": "ms",
    "detect_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in BENCHMARK.json order."""
    units: Dict[str, str] = {}
    for layer in tracing.LAYERS:
        units["%s.self_ms_per_klog" % layer] = "ms"
        units["%s.calls_per_klog" % layer] = "count"
    for phase in tracing.STEP_PHASES:
        units["step.%s_ms" % phase] = "ms"
    units["step.batch_logs_p50"] = "count"
    units["step.empty_ms"] = "ms"
    units["step.drift_ratio"] = "ratio"
    for phase in SETUP_PHASES:
        units["setup.%s_s" % phase] = "s"
    for name in (
        "parsing.index.patterns",
        "sequence.open_events_max",
        "sequence.anomalies",
        "service.storage.log_docs",
        "service.storage.anomaly_docs",
        "service.storage.on_tmpfs",
        "alerts.evals",
        "alerts.fired",
        "service.bus.backlog_max",
        "service.bus.backlog_end",
        "ingest.acked_lines",
        "ingest.shed_batches",
        "ingest.client_retries",
        "gen.sent_lines",
        "host.cpu_count",
    ):
        units[name] = "count"
    units["parsing.parser.unparsed_share"] = "ratio"
    units["service.storage.db_mb"] = "MB"
    units["ingest.server_cpu_ms_per_klog"] = "ms"
    units["gen.late_ms_p95"] = "ms"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.ledger_closure"] = "ratio"
    units["host.cal_spread"] = "ratio"
    units["host.cal_ms"] = "ms"
    return units


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def run_child(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``perf/child.py`` on ``spec``; return the JSON it wrote."""
    spec_path = spec["out"] + ".spec"
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        check=True,
        timeout=CHILD_TIMEOUT_SECONDS,
        stdout=sys.stderr,
    )
    with open(spec["out"], encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    """One workload's prepare output plus the rounds gathered so far."""

    def __init__(
        self, name: str, seed: int, seconds: float, rundir: str
    ) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.workdir = os.path.join(rundir, name)
        os.makedirs(self.workdir)
        self.timed_batches = workloads.timed_batches_for(seconds)
        self.prep: Dict[str, Any] = {}
        self.rounds: List[Dict[str, Any]] = []

    def _spec(self, mode: str, tag: str) -> Dict[str, Any]:
        return {
            "mode": mode,
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "src": SRC,
            "workdir": self.workdir,
            "out": os.path.join(self.workdir, "%s.json" % tag),
        }

    def prepare(self) -> None:
        self.prep = run_child(self._spec("prepare", "prepare"))

    def round(self, mode: str) -> Dict[str, Any]:
        index = len(self.rounds)
        rounddir = os.path.join(self.workdir, "round-%d" % index)
        os.makedirs(rounddir)
        spec = self._spec(mode, "round-%d" % index)
        spec.update(
            train=self.prep["train"],
            stream=self.prep["stream"],
            stateless=self.prep["stateless"],
            rounddir=rounddir,
            # Alternate cores: a persistently slow vCPU then only ever
            # hosts half the rounds.
            cpu=index,
            timed_batches=self.timed_batches,
            spans_path=os.path.join(OUT, "%s.spans.jsonl" % self.name),
        )
        result = run_child(spec)
        # SQLite files are per round; drop them as soon as it is read.
        shutil.rmtree(rounddir, ignore_errors=True)
        self.rounds.append(result)
        return result


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def _as_counter(rows: Sequence[Sequence[Any]]) -> Dict[Tuple[Any, Any], int]:
    return {(kind, event): count for kind, event, count in rows}


def multiset_distance(
    got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]]
) -> int:
    """Size of the symmetric difference of two anomaly multisets."""
    a, b = _as_counter(got), _as_counter(want)
    return sum(abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b))


def round_failures(
    result: Dict[str, Any], prep: Dict[str, Any], paced_batches: int
) -> Dict[str, int]:
    """Failed operations of one round, by cause (all zero when correct)."""
    offered = result["offered_lines"]
    causes = {
        "not_archived": abs(offered - result["logs_archived"]),
        "anomaly_mismatch": multiset_distance(
            result["anomalies"], prep["reference"]
        ),
        "quarantined": result["quarantined"],
    }
    flagged = {event for _kind, event, _count in result["anomalies"]}
    causes["injected_missed"] = sum(
        1 for event in prep["injected"] if event not in flagged
    )
    if "reopened_logs" in result:
        causes["lost_on_reopen"] = abs(
            result["reopened_logs"] - offered
        ) + multiset_distance(
            result["reopened_anomalies"], prep["reference"]
        )
    if result["workload"] == "socket":
        gen = result["generator"]
        seen = {m[0] for m in result["markers"]}
        expected = {"p%d" % k for k in range(paced_batches)} | {"blast-end"}
        one_second_of_input = PACED_BATCH_LINES * PACED_HZ
        causes.update(
            not_acked=abs(gen["sent_lines"] - gen["acked_lines"]),
            not_admitted=abs(gen["sent_lines"] - result["accepted"]),
            shed=result["shed"],
            rejected=result["rejected"],
            markers_missing=len(expected - seen),
            backlog_excess=max(
                0, result["paced_backlog_max"] - one_second_of_input
            )
            + max(0, result["backlog_at_exit"] - one_second_of_input),
        )
    return causes


# ----------------------------------------------------------------------
# End-to-end estimators
# ----------------------------------------------------------------------
def setup_phases(rounds: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per phase: minimum across rounds of reference-core seconds."""
    return {
        phase: min(r["phases"][phase] for r in rounds)
        for phase in SETUP_PHASES
    }


class _ServeSpeed:
    """Host speed at a point in time, from a round's serve calibrations."""

    def __init__(self, cals: Sequence[Sequence[float]]) -> None:
        self._times = [c[0] for c in cals]
        self._costs = [c[1] for c in cals]

    def at(self, when: float) -> float:
        nearest = sorted(
            range(len(self._times)), key=lambda i: abs(self._times[i] - when)
        )[:3]
        return (
            statistics.median(self._costs[i] for i in nearest)
            / measure.CAL_REF_SECONDS
        )

    def between(self, start: float, end: float) -> float:
        inside = [
            c for t, c in zip(self._times, self._costs) if start <= t <= end
        ]
        if not inside:
            return self.at((start + end) / 2)
        return statistics.median(inside) / measure.CAL_REF_SECONDS

    def cost_between(self, start: float, end: float) -> float:
        return sum(
            c for t, c in zip(self._times, self._costs) if start <= t <= end
        )


def closed_loop_samples(
    rounds: Sequence[Dict[str, Any]],
) -> Tuple[List[float], List[float]]:
    """Per-sample minima of reference-core wall and CPU seconds."""
    wall = measure.min_across_rounds(
        [measure.normalise(r["wall"], r["cal"]) for r in rounds]
    )
    cpu = measure.min_across_rounds(
        [measure.normalise(r["cpu"], r["cal"]) for r in rounds]
    )
    return wall, cpu


def socket_samples(
    rounds: Sequence[Dict[str, Any]], paced_batches: int
) -> Tuple[List[float], float, float]:
    """Marker latency minima (s), blast seconds, paced CPU seconds per line.

    Paced CPU has two parts.  The steps are samples like any other:
    marker *k* is charged its step's thread CPU per ingested line, at
    the speed calibrated right after that step, minimum across rounds.
    What the process burns besides (server thread, idle polling) is
    taken per round over the whole phase.
    """
    latencies: List[List[float]] = []
    step_cpu: List[List[float]] = []
    other_cpu: List[float] = []
    for r in rounds:
        speed = _ServeSpeed(r["cals"])
        by_label = {m[0]: m for m in r["markers"]}
        step_of = {step[1]: step for step in r["steps"]}
        start, end = r["paced_started"], r["paced_ended"]
        latency, per_line = [], []
        for k in range(paced_batches):
            _label, due, seen = by_label["p%d" % k]
            _started, _seen, ingested, cpu = step_of[seen]
            latency.append((seen - due) / 1e9 / speed.at(seen))
            per_line.append(cpu / ingested / speed.at(seen))
        latencies.append(latency)
        step_cpu.append(per_line)
        paced_steps = [s for s in r["steps"] if start <= s[0] <= end]
        lines = sum(s[2] for s in paced_steps)
        other_cpu.append(
            (
                r["paced_cpu"]
                - sum(s[3] for s in paced_steps)
                - speed.cost_between(start, end)
            )
            / speed.between(start, end)
            / lines
        )
    per_line_cpu = statistics.fmean(
        measure.min_across_rounds(step_cpu)
    ) + min(other_cpu)
    blast = min(blast_seconds(r) for r in rounds)
    return measure.min_across_rounds(latencies), blast, per_line_cpu


def blast_seconds(result: Dict[str, Any]) -> float:
    """Reference-core seconds from first blast send to last line visible.

    The blast is a few steps of thousands of lines, so the host's speed
    comes from the interval-timer kernel runs inside it.  Their median
    is used for the whole blast: single runs are inflated whenever the
    server thread takes the interpreter lock mid-kernel.
    """
    _label, first_send, seen = [
        m for m in result["markers"] if m[0] == "blast-end"
    ][0]
    raw = (seen - first_send) / 1e9
    costs = [cost for _, cost in result["blast_ticks"]]
    if not costs:  # profiled round: no timer, raw time only
        return raw
    kernel = statistics.median(costs)
    return (raw - len(costs) * kernel) / (kernel / measure.CAL_REF_SECONDS)


def end_to_end(run: Run) -> Dict[str, float]:
    rounds = [r for r in run.rounds if r["mode"] == "plain"]
    setup = setup_phases(rounds)
    if run.name == "socket":
        gen = rounds[0]["generator"]
        latency, blast_s, cpu_per_line = socket_samples(
            rounds, run.timed_batches
        )
        throughput = gen["blast_lines"] / blast_s
        cpu_us = cpu_per_line * 1e6
    else:
        latency, cpu = closed_loop_samples(rounds)
        lines = rounds[0]["timed_lines"]
        throughput = lines / sum(latency)
        cpu_us = sum(cpu) / lines * 1e6
    return {
        "setup_s": sum(setup.values()),
        "logs_per_s": throughput,
        "cpu_us_per_log": cpu_us,
        "detect_ms_p50": measure.percentile(latency, 50) * 1e3,
        "detect_ms_p95": measure.percentile(latency, 95) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
def per_layer(run: Run) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics plus the self-check violations of the trace."""
    by_mode = {r["mode"]: r for r in run.rounds}
    plain, spans_round, ledger_round = (
        by_mode["plain"], by_mode["spans"], by_mode["ledger"],
    )
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    problems: List[str] = []

    # Layer ledger.
    ledger = ledger_round["ledger"]
    if run.name == "socket":
        klog = ledger_round["generator"]["sent_lines"] / 1000.0
        plain_klog = plain["generator"]["sent_lines"] / 1000.0
    else:
        klog = ledger_round["timed_lines"] / 1000.0
        plain_klog = plain["timed_lines"] / 1000.0
    for layer, row in ledger["layers"].items():
        metrics["%s.self_ms_per_klog" % layer] = row["self_s"] * 1e3 / klog
        metrics["%s.calls_per_klog" % layer] = row["calls"] / klog
    closure = ledger["profile_total"] / ledger_round["replay_wall"]
    metrics["trace.ledger_closure"] = closure
    if abs(closure - 1.0) > LEDGER_CLOSURE_TOLERANCE:
        problems.append(
            "layer ledger does not close: self times sum to %.4f of the "
            "traced wall" % closure
        )

    # Step phases.
    spans = spans_round["spans"]
    problems.extend(tracing.check_spans(spans))
    steps = list(tracing.step_phases(spans).values())
    if run.name == "socket":
        fed = [s for s in spans_round["steps"] if s[2] > 0]
        empty = [s for s in spans_round["steps"] if s[2] == 0]
        metrics["step.batch_logs_p50"] = statistics.median(
            s[2] for s in fed
        )
        if empty:
            metrics["step.empty_ms"] = statistics.median(
                (s[1] - s[0]) / 1e6 for s in empty
            )
    else:
        batch_lines, warmup_batches = workloads.SHAPES[run.name]
        steps = steps[warmup_batches:]
        metrics["step.batch_logs_p50"] = batch_lines
    for phase in tracing.STEP_PHASES:
        metrics["step.%s_ms" % phase] = (
            statistics.median(s[phase] for s in steps) * 1e3
        )
    total = sum(s["total"] for s in steps)
    coverage = sum(s["covered"] for s in steps) / total
    metrics["trace.coverage"] = coverage
    if coverage < 0.9:
        problems.append(
            "spans cover only %.3f of step() wall time" % coverage
        )

    # Drift, overhead, set-up (from the measured round).
    if run.name == "socket":
        series, _blast, _cpu = socket_samples([plain], run.timed_batches)
        traced_series, _b, _c = socket_samples(
            [spans_round], run.timed_batches
        )
    else:
        series, _cpu_series = closed_loop_samples([plain])
        traced_series, _c = closed_loop_samples([spans_round])
    decile = max(1, len(series) // 10)
    metrics["step.drift_ratio"] = statistics.median(
        series[-decile:]
    ) / statistics.median(series[:decile])
    metrics["trace.overhead_ratio"] = sum(traced_series) / sum(series)
    for phase, value in setup_phases([plain]).items():
        metrics["setup.%s_s" % phase] = value

    # Work counts.
    offered = plain["offered_lines"]
    metrics["parsing.index.patterns"] = plain["patterns"]
    metrics["parsing.parser.unparsed_share"] = plain["unparsed"] / offered
    metrics["sequence.open_events_max"] = spans_round["open_events_max"]
    metrics["sequence.anomalies"] = plain["sequence_anomalies"]
    metrics["service.storage.log_docs"] = plain["logs_archived"]
    metrics["service.storage.anomaly_docs"] = plain["anomaly_docs"]
    metrics["service.storage.db_mb"] = plain["db_mb"]
    metrics["service.storage.on_tmpfs"] = plain["on_tmpfs"]
    metrics["alerts.evals"] = plain["alerts_evals"]
    metrics["alerts.fired"] = plain["alerts_fired"]
    metrics["service.bus.backlog_end"] = plain["backlog_end"]
    if run.name == "socket":
        gen = plain["generator"]
        metrics["service.bus.backlog_max"] = plain["backlog_max"]
        metrics["ingest.acked_lines"] = gen["acked_lines"]
        metrics["ingest.shed_batches"] = plain["shed"]
        metrics["ingest.client_retries"] = gen["retries"]
        metrics["ingest.server_cpu_ms_per_klog"] = (
            plain["server_cpu"] * 1e3 / plain_klog
        )
        metrics["gen.sent_lines"] = gen["sent_lines"]
        metrics["gen.late_ms_p95"] = gen["late_ms_p95"]
    cal = [r["host_cal"] for r in run.rounds]
    metrics["host.cal_spread"] = max(cal) / min(cal)
    metrics["host.cal_ms"] = statistics.median(cal) * 1e3
    metrics["host.cpu_count"] = plain["cpu_count"]
    return metrics, problems


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def execute(
    names: Sequence[str], seed: int, seconds: float, trace: bool
) -> List[Dict[str, Any]]:
    """Run ``names``; rounds of different workloads are interleaved."""
    os.makedirs(OUT, exist_ok=True)
    rundir = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        runs = [Run(name, seed, seconds, rundir) for name in names]
        for run in runs:
            run.prepare()
        if trace:
            plans = {run.name: ["plain", "spans", "ledger"] for run in runs}
        else:
            plans = {run.name: ["plain"] * ROUNDS[run.name] for run in runs}
        # Round-robin: events r1, formats r1, ..., events r2, ... so one
        # noisy spell cannot cover all rounds of a workload.
        for index in range(max(len(p) for p in plans.values())):
            for run in runs:
                if index < len(plans[run.name]):
                    run.round(plans[run.name][index])
        return [summarise(run, trace) for run in runs]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def summarise(run: Run, trace: bool) -> Dict[str, Any]:
    causes: Dict[str, int] = {}
    attempted = 0
    for result in run.rounds:
        attempted += result["offered_lines"]
        failures = round_failures(result, run.prep, run.timed_batches)
        for cause, count in failures.items():
            causes[cause] = causes.get(cause, 0) + count
    failed = sum(causes.values())
    problems: List[str] = []
    if trace:
        values, problems = per_layer(run)
        units = per_layer_units()
    else:
        values = end_to_end(run)
        units = END_TO_END
    return {
        "workload": run.name,
        "samples": run.timed_batches,
        "rounds": len(run.rounds),
        "causes": {k: v for k, v in causes.items() if v},
        "problems": problems,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def report(summary: Dict[str, Any]) -> None:
    """Human-readable table, then the contract's one-line JSON."""
    result = summary["result"]
    print(
        "# %s: %d rounds, %d timed samples per round, %d lines offered, "
        "%d failed%s"
        % (
            summary["workload"],
            summary["rounds"],
            summary["samples"],
            result["attempted"],
            result["failed"],
            " %r" % summary["causes"] if summary["causes"] else "",
        )
    )
    for problem in summary["problems"]:
        print("# TRACE SELF-CHECK FAILED: %s" % problem)
    for name, entry in result["metrics"].items():
        print("%-36s %16.6f %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps(result))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(workloads.WORKLOADS), default=None,
        help="one workload (default: all four, rounds interleaved)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perf/run.py: no src/repro next to perf/ - the benchmark "
            "drives the repository's own sources",
            file=sys.stderr,
        )
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    summaries = execute(names, args.seed, args.seconds, bool(args.trace))
    for summary in summaries:
        report(summary)
    sys.stdout.flush()
    return 0 if all(s["result"]["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
