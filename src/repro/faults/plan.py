"""Deterministic fault-injection harness.

A :class:`FaultPlan` is a schedule of failures to inject at named *sites*
— instrumented call points spread through the system:

* ``operator:<kind>:<node_id>`` — every streaming-operator invocation
  (``PartitionExecutor._invoke``), one per operator node (not sinks);
* ``broadcast.pull`` — worker block-cache misses pulling a broadcast
  value from the driver;
* ``heartbeat.emit`` — per-source heartbeat emission in the controller.

Rules address sites by exact name or ``fnmatch`` pattern
(``operator:flat_map:*``), and fire on a deterministic schedule: the
first N matching calls (:meth:`fail_first`), an explicit set of call
ordinals (:meth:`fail_nth`), or every call whose *subject* — the record
under processing — matches a predicate (:meth:`poison`).  Slow-call
rules advance the plan's clock instead of sleeping, so a per-attempt
timeout can be exercised without wall-clock delay.

Determinism: rule counters are per-rule and lock-protected, so a serial
streaming context replays the exact same failure schedule every run,
and ``execution="processes"`` reproduces it (see
:meth:`FaultPlan.has_live_call_budget`).
"""

from __future__ import annotations

import threading
from fnmatch import fnmatchcase
from typing import Any, Callable, Dict, List, Optional

from ..errors import LogLensError
from .clock import ManualClock

__all__ = ["FaultInjected", "FaultPlan"]


class FaultInjected(LogLensError):
    """The failure a :class:`FaultPlan` rule injects by default."""


class _Rule:
    __slots__ = ("site", "action", "calls", "first", "always",
                 "predicate", "exc_factory", "seconds", "seen",
                 "triggered")

    def __init__(
        self,
        site: str,
        action: str,
        *,
        calls: Optional[frozenset] = None,
        first: int = 0,
        always: bool = False,
        predicate: Optional[Callable[[Any], bool]] = None,
        exc_factory: Optional[Callable[[], BaseException]] = None,
        seconds: float = 0.0,
    ) -> None:
        self.site = site
        self.action = action  # "raise" | "slow"
        self.calls = calls
        self.first = first
        self.always = always
        self.predicate = predicate
        self.exc_factory = exc_factory
        self.seconds = seconds
        self.seen = 0       # matching invocations observed
        self.triggered = 0  # faults actually injected

    def fires(self, subject: Any) -> bool:
        """Decide (and count) whether this rule fires for one call."""
        if self.predicate is not None and not self.predicate(subject):
            return False
        self.seen += 1
        if self.always:
            return True
        if self.calls is not None:
            return self.seen in self.calls
        return self.seen <= self.first


class FaultPlan:
    """A deterministic, thread-safe schedule of injected failures.

    All registration methods return ``self`` so plans read as one
    chained expression::

        plan = (FaultPlan()
                .fail_first("operator:map:*", 2)
                .poison("operator:flat_map:*", lambda r: "bad" in r.value)
                .flaky_broadcast_fetch(3))
    """

    def __init__(self, clock: Optional[ManualClock] = None) -> None:
        #: Clock that slow-call rules advance; share it with the
        #: :class:`~repro.streaming.retry.RetryPolicy` under test so
        #: injected slowness is visible to per-attempt timeouts.
        self.clock = clock if clock is not None else ManualClock()
        self._lock = threading.Lock()
        self._rules: List[_Rule] = []
        self._site_calls: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Rule registration
    # ------------------------------------------------------------------
    def fail_nth(
        self,
        site: str,
        *calls: int,
        exc: Optional[Callable[[], BaseException]] = None,
    ) -> "FaultPlan":
        """Raise on the given 1-based call ordinals at ``site``."""
        return self._add(_Rule(
            site, "raise", calls=frozenset(calls), exc_factory=exc,
        ))

    def fail_first(
        self,
        site: str,
        n: int,
        exc: Optional[Callable[[], BaseException]] = None,
    ) -> "FaultPlan":
        """Raise on the first ``n`` calls at ``site`` (then heal)."""
        return self._add(_Rule(site, "raise", first=n, exc_factory=exc))

    def poison(
        self,
        site: str,
        predicate: Callable[[Any], bool],
        exc: Optional[Callable[[], BaseException]] = None,
    ) -> "FaultPlan":
        """Raise on *every* call whose subject matches ``predicate``.

        This models a poison record: no amount of retrying helps, so the
        record is destined for quarantine and the dead-letter topic.
        """
        return self._add(_Rule(
            site, "raise", always=True, predicate=predicate,
            exc_factory=exc,
        ))

    def slow_nth(
        self, site: str, *calls: int, seconds: float
    ) -> "FaultPlan":
        """Advance the plan clock by ``seconds`` on the given calls."""
        return self._add(_Rule(
            site, "slow", calls=frozenset(calls), seconds=seconds,
        ))

    def slow_first(
        self, site: str, n: int, seconds: float
    ) -> "FaultPlan":
        return self._add(_Rule(site, "slow", first=n, seconds=seconds))

    def flaky_broadcast_fetch(
        self,
        n: int,
        exc: Optional[Callable[[], BaseException]] = None,
    ) -> "FaultPlan":
        """Fail the first ``n`` broadcast pulls from worker caches.

        The failure surfaces inside whichever operator performed the
        fetch, so the engine's retry policy heals it — proving that
        rebroadcasts still apply under transient fetch failures.
        """
        return self.fail_first("broadcast.pull", n, exc=exc)

    def _add(self, rule: _Rule) -> "FaultPlan":
        with self._lock:
            self._rules.append(rule)
        return self

    # ------------------------------------------------------------------
    # Instrumented call points
    # ------------------------------------------------------------------
    def invoke(
        self,
        site: str,
        fn: Callable[..., Any],
        *args: Any,
        subject: Any = None,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` at ``site``, injecting any scheduled fault first.

        ``subject`` is handed to rule predicates (the engine passes the
        record being processed).  Slow rules advance the clock *before*
        the call; raise rules abort it with the rule's exception.
        """
        slow_seconds = 0.0
        raise_rule: Optional[_Rule] = None
        with self._lock:
            self._site_calls[site] = self._site_calls.get(site, 0) + 1
            for rule in self._rules:
                if not fnmatchcase(site, rule.site):
                    continue
                if not rule.fires(subject):
                    continue
                rule.triggered += 1
                if rule.action == "slow":
                    slow_seconds += rule.seconds
                elif raise_rule is None:
                    raise_rule = rule
        if slow_seconds:
            self.clock.advance(slow_seconds)
        if raise_rule is not None:
            factory = raise_rule.exc_factory
            if factory is not None:
                raise factory()
            raise FaultInjected(
                "injected fault at %s (call %d)"
                % (site, raise_rule.seen)
            )
        return fn(*args, **kwargs)

    # ------------------------------------------------------------------
    # Process-backend synchronisation
    # ------------------------------------------------------------------
    # Worker processes carry a pickled copy of the plan.  Per batch the
    # driver ships its authoritative counters (``sync_state``), each
    # worker loads them before running (``load_sync_state``), and the
    # driver folds each worker's post-batch counters back in
    # (``apply_remote_delta``), so budgeted rules (``fail_first`` etc.)
    # spend one shared budget across batches.  While any call-ordinal
    # budget is still live (:meth:`has_live_call_budget`), the process
    # backend chains partitions sequentially in partition order, so
    # ordinal counting is *exactly* the serial schedule even when the
    # matching records span partitions; once every budget is spent (or
    # only ``poison`` rules remain, which depend solely on the subject)
    # partitions run fully parallel again (see docs/PARALLELISM.md).
    def has_live_call_budget(self) -> bool:
        """True while any call-ordinal rule could still fire.

        ``poison``-style rules (``always=True``) fire on the subject
        alone — partition interleaving cannot change which records they
        hit — so they never require sequencing.  ``fail_nth`` /
        ``fail_first`` (and the slow variants) fire on the *count* of
        matching calls, which is only exact if calls are counted in the
        serial order; once ``seen`` has passed every scheduled ordinal
        the rule is inert and the count no longer matters.
        """
        with self._lock:
            for rule in self._rules:
                if rule.always:
                    continue
                if rule.calls is not None:
                    if rule.calls and rule.seen < max(rule.calls):
                        return True
                elif rule.seen < rule.first:
                    return True
        return False

    def sync_state(self) -> Any:
        """Counters to ship to workers before a batch (picklable)."""
        with self._lock:
            return (
                [(r.seen, r.triggered) for r in self._rules],
                dict(self._site_calls),
            )

    def load_sync_state(self, state: Any) -> None:
        """Adopt the driver's counters (worker side, pre-batch)."""
        rules, sites = state
        with self._lock:
            for rule, (seen, triggered) in zip(self._rules, rules):
                rule.seen = seen
                rule.triggered = triggered
            self._site_calls = dict(sites)

    def apply_remote_delta(self, sent: Any, returned: Any) -> None:
        """Fold one worker's post-batch counters into the driver plan."""
        sent_rules, sent_sites = sent
        ret_rules, ret_sites = returned
        with self._lock:
            for rule, before, after in zip(
                self._rules, sent_rules, ret_rules
            ):
                rule.seen += after[0] - before[0]
                rule.triggered += after[1] - before[1]
            for site, count in ret_sites.items():
                delta = count - sent_sites.get(site, 0)
                if delta:
                    self._site_calls[site] = (
                        self._site_calls.get(site, 0) + delta
                    )

    # Picklable (for process-backend workers): the lock is per-process;
    # rule predicates and exception factories must themselves pickle.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def call_count(self, site: str) -> int:
        """Invocations observed at one exact site name."""
        with self._lock:
            return self._site_calls.get(site, 0)

    def injected_total(self) -> int:
        """Total faults injected across every rule."""
        with self._lock:
            return sum(r.triggered for r in self._rules)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe summary (the chaos CLI prints this)."""
        with self._lock:
            return {
                "sites": dict(self._site_calls),
                "rules": [
                    {
                        "site": r.site,
                        "action": r.action,
                        "seen": r.seen,
                        "triggered": r.triggered,
                    }
                    for r in self._rules
                ],
            }
