"""Estimators for a shared machine: calibration, per-sample minima, percentiles.

Pure stdlib and free of any ``repro`` import, so the parent process, the
round children and the unit tests all share one definition.

Why these estimators (see README.md): on the reference VM the *same*
pure-Python loop costs 1.0 ms or 1.6 ms depending on which vCPU it lands
on and what the host's other tenants do, and the mode flips every few
seconds.  Two defences are combined:

* every timed sample is divided by the cost of a fixed stdlib
  calibration kernel run immediately before and after it on the same
  thread (``speed``), which turns wall time into time on a *reference
  core* where the kernel costs ``CAL_REF_SECONDS``;
* sample *i* is the same deterministic work in every round, and what
  interference survives the normalisation only ever adds time, so its
  cost is the minimum across rounds.
"""

from __future__ import annotations

import re
import statistics
from time import perf_counter
from typing import Dict, List, Sequence

__all__ = [
    "CAL_REF_SECONDS",
    "calibrate",
    "speeds",
    "normalise",
    "min_across_rounds",
    "percentile",
]

#: The calibration kernel's cost on the reference core.  A constant by
#: definition (not re-measured): it only fixes the unit, so that the
#: normalised numbers read as seconds on the quiet reference box.
CAL_REF_SECONDS = 0.00100

_CAL_RE = re.compile(r"([0-9]+)-([a-z]+)\.([0-9a-f]+)")


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left: object, right: object) -> None:
        self.left = left
        self.right = right


def calibrate() -> float:
    """Run the fixed calibration kernel; return its wall time in seconds.

    Half integer arithmetic, half the things a log pipeline does —
    formatting, splitting, a regex match, dict and list churn, small
    object allocation.  The mix was chosen so the kernel slows down by
    about the same factor as ``service.step()`` when the host does; a
    pure arithmetic loop under-reacts and a pure allocation loop
    over-reacts (README, "Estimator 1").
    """
    started = perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    table: Dict[str, _Pair] = {}
    seen: List[tuple] = []
    for i in range(200):
        text = "%d-%s.%x and more tokens here" % (i, "abc", i * 7919)
        parts = text.split()
        match = _CAL_RE.fullmatch(parts[0])
        if match is not None:
            table[match.group(1)] = _Pair(parts, match.group(3))
        seen.append((i, len(parts)))
        acc += len(text)
    for key in table:
        acc += len(table[key].right)
    return perf_counter() - started


#: Calibrations either side of a sample that vote on its speed.
_SPEED_WINDOW = 2


def speeds(cal: Sequence[float]) -> List[float]:
    """Host slowdown factor for each sample between calibration points.

    ``cal[i]`` and ``cal[i + 1]`` bracket sample *i*.  One kernel run is
    only ~1 ms, so a single timer interrupt would move it by 10 %; the
    factor is therefore the median of the ``_SPEED_WINDOW``
    calibrations either side, relative to the reference core.
    """
    count = len(cal) - 1
    out: List[float] = []
    for i in range(count):
        lo = max(0, i - _SPEED_WINDOW + 1)
        hi = min(len(cal), i + _SPEED_WINDOW + 1)
        out.append(statistics.median(cal[lo:hi]) / CAL_REF_SECONDS)
    return out


def normalise(samples: Sequence[float], cal: Sequence[float]) -> List[float]:
    """Samples re-expressed as time on the reference core."""
    if len(cal) != len(samples) + 1:
        raise ValueError(
            "need one calibration either side of every sample "
            "(%d samples, %d calibrations)" % (len(samples), len(cal))
        )
    return [s / k for s, k in zip(samples, speeds(cal))]


def min_across_rounds(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Per-sample minimum: sample *i* costs ``min_r rounds[r][i]``."""
    if not rounds:
        raise ValueError("no rounds")
    length = len(rounds[0])
    for samples in rounds:
        if len(samples) != length:
            raise ValueError(
                "rounds replayed different work: %d vs %d samples"
                % (len(samples), length)
            )
    return [min(column) for column in zip(*rounds)]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]
