"""The alert data model: rules, lifecycle states, and events.

An :class:`AlertRule` names a *signal*, a *condition*, and a sliding
time *window*, and the :class:`~repro.alerts.evaluator.AlertEvaluator`
walks each rule through the lifecycle ``OK → FIRING → RESOLVED → OK``
on the service's heartbeat cycle.

Signal
------
``"anomaly_rate"`` — the number of anomalies stored in the sliding
window ``[now - window_millis, now]`` (log time, extrapolated by the
heartbeat controller), optionally filtered by ``anomaly_type``.  It is
the only signal.

Condition grammar
-----------------
``>``, ``>=``, ``<``, ``<=``, ``==`` compare the signal value against
``threshold``.  ``stale`` takes no threshold: it fires while no
matching anomaly has a timestamp inside the window (a detector or
source that went quiet).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "OK",
    "FIRING",
    "RESOLVED",
    "CONDITIONS",
    "AlertRule",
    "AlertEvent",
    "compare",
]

#: Lifecycle states of a rule (also the ``state`` of history documents).
OK = "ok"
FIRING = "firing"
RESOLVED = "resolved"

_COMPARATORS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}

#: Every condition an :class:`AlertRule` accepts.
CONDITIONS = tuple(_COMPARATORS) + ("stale",)


def compare(value: float, condition: str, threshold: float) -> bool:
    """Apply one of the comparison conditions (not stale)."""
    try:
        comparator = _COMPARATORS[condition]
    except KeyError:
        raise ValueError(
            "condition %r is not a comparison; valid comparisons: %s"
            % (condition, ", ".join(_COMPARATORS))
        )
    return bool(comparator(value, threshold))


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting rule (frozen; see module docstring).

    Parameters
    ----------
    name:
        Unique rule name (the history identity).
    signal:
        ``"anomaly_rate"``, the only signal.
    condition / threshold:
        ``value <condition> threshold`` breaches the rule; ``stale``
        ignores the threshold.
    window_millis:
        Sliding window width (log time).
    anomaly_type:
        Count only anomalies whose ``type`` field equals this.
    """

    name: str
    signal: str = "anomaly_rate"
    condition: str = ">"
    threshold: float = 0.0
    window_millis: int = 60_000
    anomaly_type: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rule needs a non-empty name")
        if self.condition not in CONDITIONS:
            raise ValueError(
                "rule %r: unknown condition %r; valid conditions: %s"
                % (self.name, self.condition, ", ".join(CONDITIONS))
            )
        if self.signal != "anomaly_rate":
            raise ValueError(
                "rule %r: signal must be 'anomaly_rate'; got %r"
                % (self.name, self.signal)
            )
        if self.window_millis <= 0:
            raise ValueError(
                "rule %r: window_millis must be > 0" % self.name
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlertRule":
        """Build a rule from a config-file table.

        Unknown keys raise ``ValueError`` listing the valid keys, so a
        typo in a config file fails loudly at load time.
        """
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ValueError(
                "unknown alert rule key(s) %s (rule %r); valid keys: %s"
                % (
                    ", ".join(unknown),
                    data.get("name", "?"),
                    ", ".join(sorted(valid)),
                )
            )
        return cls(**dict(data))

    def to_dict(self) -> Dict[str, Any]:
        """JSON/TOML-safe export; omits an unset ``anomaly_type``."""
        out: Dict[str, Any] = {
            "name": self.name,
            "signal": self.signal,
            "condition": self.condition,
            "threshold": self.threshold,
            "window_millis": self.window_millis,
        }
        if self.anomaly_type is not None:
            out["anomaly_type"] = self.anomaly_type
        return out


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition of a rule (what sinks deliver).

    ``state`` is ``"firing"``, ``"resolved"``, or ``"test"`` (the CLI's
    ``alerts test-fire``).  ``value`` is the signal value that drove the
    transition; ``timestamp_millis`` is the evaluation's log time.
    """

    rule: str
    state: str
    value: float
    threshold: float
    condition: str
    signal: str
    timestamp_millis: int
    window_millis: int

    def to_dict(self) -> Dict[str, Any]:
        """The alert-history document / sink payload."""
        return {
            "rule": self.rule,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "condition": self.condition,
            "signal": self.signal,
            "timestamp_millis": self.timestamp_millis,
            "window_millis": self.window_millis,
        }
