"""Does the benchmark agree with itself?  The acceptance rule, runnable.

    python3 perf/agree.py [--sets 2] [--runs 10] [--workload W ...]

A *set* is ``--runs`` runs of ``perf/run.py`` per workload, each run on
another ``--seed``.  For every workload x end-to-end metric this prints

* the *spread* of each set: the distance between the first and third
  quartile of its values (``statistics.quantiles(values, n=4)``) as a
  share of their median, and
* the *disagreement* of the sets: how much worse (in the metric's own
  direction) the worst set median is than the first one,

against the metric's bound in ``BENCHMARK.json``, and exits non-zero if
any spread or disagreement exceeds its bound (``setup_s`` is exempt from
the spread rule, as in the driver).  Nothing here touches ``src/``: the
sets are runs of the same code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def one_run(
    command: Sequence[str], workload: str, seed: int, seconds: int
) -> Dict[str, float]:
    """One driver-style invocation; returns metric name -> value."""
    done = subprocess.run(
        list(command)
        + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=180,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(
            "%s seed %d: output check failed (%d of %d)"
            % (workload, seed, result["failed"], result["attempted"])
        )
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(first: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``first`` (negative = better)."""
    if better == "lower":
        return (other - first) / first
    return (first - other) / first


def main() -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in benchmark["workloads"]],
    )
    parser.add_argument(
        "--dump", help="write every run's metrics to this JSON file"
    )
    args = parser.parse_args()
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least two sets of at least two runs")
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]

    # values[workload][set][metric] -> list over runs
    values: Dict[str, List[Dict[str, List[float]]]] = {
        name: [
            {m["name"]: [] for m in metrics} for _ in range(args.sets)
        ]
        for name in names
    }
    seed = args.first_seed
    for set_index in range(args.sets):
        for run_index in range(args.runs):
            for name in names:
                got = one_run(
                    benchmark["command"], name, seed,
                    benchmark["run_seconds"],
                )
                for metric, value in got.items():
                    values[name][set_index][metric].append(value)
                print(
                    "set %d run %d %s seed %d done"
                    % (set_index + 1, run_index + 1, name, seed),
                    file=sys.stderr,
                )
            seed += 1
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as handle:
            json.dump(values, handle)

    failures = 0
    print(
        "%-8s %-16s %6s %12s %s  %s"
        % ("workload", "metric", "bound", "median[1]", "spread/set", "disagree")
    )
    for name in names:
        for metric in metrics:
            key, bound = metric["name"], metric["bound"]
            sets = [values[name][i][key] for i in range(args.sets)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            disagree = max(
                worsening(medians[0], other, metric["better"])
                for other in medians[1:]
            )
            bad = disagree > bound or (
                key != "setup_s" and max(spreads) > bound
            )
            failures += bad
            print(
                "%-8s %-16s %6.2f %12.4f %s  %+.4f%s"
                % (
                    name, key, bound, medians[0],
                    " ".join("%.4f" % s for s in spreads),
                    disagree,
                    "  <-- exceeds bound" if bad else "",
                )
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
