"""The alert evaluator: windowed aggregation + lifecycle state machine.

Runs on the service's heartbeat cycle (``LogLensService.step`` calls
:meth:`AlertEvaluator.evaluate` with the extrapolated log-time "now"),
evaluates every rule against the anomaly store, and walks each rule
through ``OK → FIRING → RESOLVED → OK``:

* **OK → FIRING** — the first breached evaluation (a ``firing`` event
  is recorded and delivered); a rule already FIRING emits nothing more
  until it resolves, so an episode pages once;
* **FIRING → RESOLVED** — the first non-breached evaluation (a
  ``resolved`` event is recorded and delivered);
* **RESOLVED → OK** — the following quiet evaluation (no event); a
  breach from RESOLVED fires again.

Delivery: every event is appended to the
:class:`~repro.alerts.history.AlertHistory` *first* (the durable
record), then handed to each sink through the ``alert.deliver``
:class:`~repro.faults.FaultPlan` site, retried per the service
:class:`~repro.streaming.retry.RetryPolicy` on its injectable clock,
and — when the retry budget is exhausted — dead-lettered to the
``loglens.alerts`` bus topic.  An event is therefore never lost
(history + delivered-or-dead-lettered) and never double-delivered to a
sink that accepted it (retries happen only after a raised failure).

Each rule counts its window on the anomaly table's time index
(:meth:`~repro.service.storage.AnomalyStorage.count_in_window` is the
width of a bisect slice in memory and one ``COUNT(*)`` on the time
index on SQLite) and reads no document back, so a step's alert cost
follows the windows, not the size of the store; ``perf/run.py``'s
``durable`` workload reports its share as ``step.alert_ms`` under
``--trace 1``.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, List, Optional, Sequence

from ..obs import get_registry
from .history import AlertHistory
from .rules import FIRING, OK, RESOLVED, AlertEvent, AlertRule, compare
from .sinks import build_sink

__all__ = ["ALERTS_TOPIC", "AlertEvaluator"]

#: Dead-letter origin for exhausted alert deliveries
#: (envelopes land on ``loglens.alerts.deadletter``).
ALERTS_TOPIC = "loglens.alerts"


class AlertEvaluator:
    """Evaluates alert rules and drives sink delivery.

    Registered as the service's ``alerts``
    :class:`~repro.service.sections.ReportSection`.
    """

    section_name = "alerts"

    def __init__(
        self,
        rules: Sequence[AlertRule] = (),
        *,
        metrics: Optional[Any] = None,
        anomaly_storage: Optional[Any] = None,
        history: Optional[AlertHistory] = None,
        sinks: Sequence[Any] = (),
        bus: Optional[Any] = None,
        retry_policy: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        self.rules = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            duplicates = sorted(
                {n for n in names if names.count(n) > 1}
            )
            raise ValueError(
                "duplicate alert rule name(s): %s" % ", ".join(duplicates)
            )
        self._metrics = metrics if metrics is not None else get_registry()
        self.anomaly_storage = anomaly_storage
        self.history = (
            history if history is not None
            else AlertHistory(metrics=self._metrics)
        )
        self.sinks = tuple(build_sink(s) for s in sinks)
        self._bus = bus
        if retry_policy is None:
            from ..faults import ManualClock
            from ..streaming.retry import RetryPolicy

            retry_policy = RetryPolicy.no_wait(
                max_attempts=3, clock=ManualClock()
            )
        self._retry = retry_policy
        self._fault_plan = fault_plan
        self._states: Dict[str, str] = {
            rule.name: OK for rule in self.rules
        }
        self._last_evaluated_at: Optional[int] = None

        # Exact local totals (report surface; survive a NullRegistry).
        self.fired_total = 0
        self.resolved_total = 0
        self.delivered_total = 0
        self.dead_lettered_total = 0

        obs = self._metrics
        self._m_evaluations = obs.counter("alerts.evaluations")
        self._m_fired = obs.counter("alerts.fired")
        self._m_resolved = obs.counter("alerts.resolved")
        self._m_delivered = obs.counter("alerts.delivered")
        self._m_delivery_errors = obs.counter("alerts.delivery_errors")
        self._m_dead_lettered = obs.counter("alerts.dead_lettered")
        self._g_rules = obs.gauge("alerts.rules")
        self._g_firing = obs.gauge("alerts.firing")
        self._h_eval_seconds = obs.histogram("alerts.eval_seconds")
        self._g_rules.set(len(self.rules))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def firing(self) -> List[str]:
        """Names of rules currently in the FIRING state, rule order."""
        return [
            rule.name
            for rule in self.rules
            if self._states[rule.name] == FIRING
        ]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, now_millis: Optional[int]
    ) -> List[AlertEvent]:
        """One evaluation pass over every rule at log time ``now``.

        ``now_millis=None`` (no source has produced a timestamped log
        yet) evaluates no rule: every window is in log time.
        """
        started = _time.perf_counter()
        events: List[AlertEvent] = []
        if now_millis is not None and self.anomaly_storage is not None:
            for rule in self.rules:
                event = self._evaluate_rule(rule, now_millis)
                if event is not None:
                    events.append(event)
        if now_millis is not None:
            self._last_evaluated_at = now_millis
        self._m_evaluations.inc()
        self._g_firing.set(len(self.firing()))
        self._h_eval_seconds.observe(_time.perf_counter() - started)
        for event in events:
            self.history.append(event.to_dict())
            self._deliver(event)
        return events

    def _evaluate_rule(
        self, rule: AlertRule, now_millis: int
    ) -> Optional[AlertEvent]:
        count = self._anomaly_count(rule, now_millis)
        if rule.condition == "stale":
            breached = count == 0
        else:
            breached = compare(float(count), rule.condition, rule.threshold)
        state = self._states[rule.name]
        if breached:
            if state == FIRING:
                return None  # ongoing alert: one fire per episode
            self._states[rule.name] = FIRING
            self.fired_total += 1
            self._m_fired.inc()
            return self._event(rule, FIRING, float(count), now_millis)
        if state == FIRING:
            self._states[rule.name] = RESOLVED
            self.resolved_total += 1
            self._m_resolved.inc()
            return self._event(rule, RESOLVED, float(count), now_millis)
        self._states[rule.name] = OK
        return None

    def _event(
        self, rule: AlertRule, state: str, value: float, when: int
    ) -> AlertEvent:
        return AlertEvent(
            rule=rule.name,
            state=state,
            value=value,
            threshold=rule.threshold,
            condition=rule.condition,
            signal=rule.signal,
            timestamp_millis=when,
            window_millis=rule.window_millis,
        )

    def _anomaly_count(self, rule: AlertRule, now_millis: int) -> int:
        """Matching anomalies inside the sliding window (time index)."""
        return self.anomaly_storage.count_in_window(
            now_millis - rule.window_millis, now_millis, rule.anomaly_type
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, event: AlertEvent) -> None:
        for sink in self.sinks:
            self._deliver_to(sink, event)

    def _deliver_to(self, sink: Any, event: AlertEvent) -> None:
        attempts = 0
        while True:
            attempts += 1
            try:
                if self._fault_plan is not None:
                    self._fault_plan.invoke(
                        "alert.deliver", sink.deliver, event, subject=event
                    )
                else:
                    sink.deliver(event)
            except Exception as exc:
                self._m_delivery_errors.inc()
                if attempts >= self._retry.max_attempts:
                    self._dead_letter(sink, event, exc, attempts)
                    return
                self._retry.clock.sleep(self._retry.delay_for(attempts))
                continue
            self.delivered_total += 1
            self._m_delivered.inc()
            return

    def _dead_letter(
        self, sink: Any, event: AlertEvent, error: Exception, attempts: int
    ) -> None:
        self.dead_lettered_total += 1
        self._m_dead_lettered.inc()
        if self._bus is None:
            return
        self._bus.produce_failed(
            ALERTS_TOPIC,
            event.to_dict(),
            error,
            key=event.rule,
            metadata={
                "sink": getattr(sink, "name", str(sink)),
                "attempts": attempts,
                "state": event.state,
            },
        )

    # ------------------------------------------------------------------
    # Manual firing (the CLI's ``alerts test-fire``)
    # ------------------------------------------------------------------
    def test_fire(
        self, rule_name: str, now_millis: int = 0
    ) -> AlertEvent:
        """Record + deliver a synthetic ``test`` event for one rule.

        Exercises the full history/sink/dead-letter path without
        touching lifecycle state — the operational "is my pager wired
        up" check.
        """
        rule = next(
            (r for r in self.rules if r.name == rule_name), None
        )
        if rule is None:
            raise KeyError(
                "no alert rule named %r; rules: %s"
                % (rule_name,
                   ", ".join(r.name for r in self.rules) or "(none)")
            )
        event = self._event(rule, "test", 0.0, now_millis)
        self.history.append(event.to_dict())
        self._deliver(event)
        return event

    # ------------------------------------------------------------------
    # Report section
    # ------------------------------------------------------------------
    def report_section(self) -> Dict[str, Any]:
        """The ``alerts`` section of :meth:`LogLensService.report`."""
        return {
            "rules": len(self.rules),
            "firing": self.firing(),
            "states": {
                rule.name: self._states[rule.name] for rule in self.rules
            },
            "fired": self.fired_total,
            "resolved": self.resolved_total,
            "delivered": self.delivered_total,
            "dead_lettered": self.dead_lettered_total,
            "history": self.history.count(),
            "sinks": [
                getattr(sink, "name", str(sink)) for sink in self.sinks
            ],
            "last_evaluated_millis": self._last_evaluated_at,
        }
