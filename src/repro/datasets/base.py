"""Shared machinery for the synthetic evaluation datasets.

The paper's six datasets (Table III) and two case studies are proprietary
or impractically large; DESIGN.md documents the substitution.  This module
provides the two generator families every dataset builds on:

* :class:`WorkflowSpec` / :class:`EventStreamGenerator` — event-structured
  logs (D1, D2, SS7): concurrent events drawn from one or more workflows,
  with controlled anomaly injection and exact ground truth.
* :class:`TemplateCorpus` — format-diverse logs (D3–D6, SQL case study):
  hundreds-to-thousands of structurally distinct templates rendered with
  fresh variable values, exercising pattern discovery and parser scaling.

Everything is deterministic under a seed; no wall-clock access.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..parsing.timestamps import format_epoch_millis

__all__ = [
    "BASE_TIME_MILLIS",
    "render_timestamp",
    "StateSpec",
    "WorkflowSpec",
    "InjectedAnomaly",
    "EventDataset",
    "EventStreamGenerator",
    "TemplateCorpus",
    "CorpusDataset",
]

#: 2016/05/09 10:00:00.000 UTC — the epoch of the paper's SS7 case study.
BASE_TIME_MILLIS = 1462788000000


def render_timestamp(millis: int) -> str:
    """Render a log timestamp in the canonical format generators emit."""
    return format_epoch_millis(millis)


# ----------------------------------------------------------------------
# Event-structured datasets (D1, D2, SS7)
# ----------------------------------------------------------------------
@dataclass
class StateSpec:
    """One action of a workflow: the log template of one automaton state.

    ``template`` uses ``{ts}`` and ``{eid}`` placeholders plus any keys
    produced by ``fillers``.  ``repeat`` bounds how many times the state
    occurs in a *normal* event.
    """

    template: str
    repeat: Tuple[int, int] = (1, 1)
    fillers: Dict[str, Callable[[random.Random], str]] = field(
        default_factory=dict
    )

    def render(self, ts_millis: int, eid: str, rng: random.Random) -> str:
        values = {name: fn(rng) for name, fn in self.fillers.items()}
        return self.template.format(
            ts=render_timestamp(ts_millis), eid=eid, **values
        )


@dataclass
class WorkflowSpec:
    """An event type: begin action, middle actions, end action.

    ``gap_choices_millis`` is the discrete set of inter-action gaps used by
    normal events; the learner's duration bounds derive from it, so test
    normals drawn from the same set never alert.
    """

    name: str
    begin: StateSpec
    middles: List[StateSpec]
    end: StateSpec
    gap_choices_millis: Tuple[int, ...] = (1000, 2000, 3000)
    id_prefix: str = "ev"


@dataclass(frozen=True)
class InjectedAnomaly:
    """Ground-truth record of one injected anomalous event."""

    event_id: str
    workflow: str
    kind: str
    #: True when the anomaly is only observable via heartbeat expiry
    #: (a missing end state — nothing ever finalises the event).
    needs_heartbeat: bool


@dataclass
class EventDataset:
    """An event-structured dataset with exact ground truth."""

    name: str
    train: List[str]
    test: List[str]
    injected: List[InjectedAnomaly]
    workflows: List[WorkflowSpec]

    @property
    def total_anomalies(self) -> int:
        return len(self.injected)


_ANOMALY_KINDS = (
    "missing_end",
    "missing_intermediate",
    "occurrence_violation",
    "duration_violation",
    "missing_begin",
)


class EventStreamGenerator:
    """Emit interleaved events from one or more workflows.

    Normal events choose per-state repeats and inter-action gaps from the
    workflow's declared discrete sets.  The first two training events of
    every workflow pin the extremes (all-minimum and all-maximum repeats
    and gaps) so the learned occurrence/duration bounds cover every normal
    test event exactly.
    """

    def __init__(self, seed: int = 7) -> None:
        self.rng = random.Random(seed)
        self._counter = 0

    # ------------------------------------------------------------------
    def generate_event(
        self,
        spec: WorkflowSpec,
        start_millis: int,
        anomaly: Optional[str] = None,
        extreme: Optional[str] = None,
    ) -> Tuple[List[Tuple[int, str]], str]:
        """One event's ``(timestamp, line)`` list plus its event id.

        ``anomaly`` is one of the five injection kinds or ``None``;
        ``extreme`` forces ``"min"``/``"max"`` repeats+gaps (training only).
        """
        if anomaly is not None and anomaly not in _ANOMALY_KINDS:
            raise ValueError("unknown anomaly kind %r" % anomaly)
        rng = self.rng
        self._counter += 1
        eid = "%s-%06d" % (spec.id_prefix, self._counter)
        lines: List[Tuple[int, str]] = []
        now = start_millis

        def gap() -> int:
            if extreme == "min":
                return min(spec.gap_choices_millis)
            if extreme == "max":
                return max(spec.gap_choices_millis)
            return rng.choice(spec.gap_choices_millis)

        # Begin action.
        if anomaly != "missing_begin":
            lines.append((now, spec.begin.render(now, eid, rng)))
        # Middle actions.
        skip_index = (
            rng.randrange(len(spec.middles))
            if anomaly == "missing_intermediate" and spec.middles
            else None
        )
        for idx, state in enumerate(spec.middles):
            lo, hi = state.repeat
            if extreme == "min":
                repeats = lo
            elif extreme == "max":
                repeats = hi
            else:
                repeats = rng.randint(lo, hi)
            if idx == skip_index:
                repeats = 0
            elif anomaly == "occurrence_violation" and idx == 0:
                repeats = hi + 2
            for _ in range(repeats):
                now += gap()
                lines.append((now, state.render(now, eid, rng)))
        # End action.
        if anomaly != "missing_end":
            now += gap()
            if anomaly == "duration_violation":
                # Land at ~1.5x the learnable maximum duration: clearly
                # outside the profiled bounds, yet inside the detector's
                # default expiry window (2x max duration) so a heartbeat
                # cannot expire the event before its late end arrives.
                est_max = (
                    sum(s.repeat[1] for s in spec.middles) + 1
                ) * max(spec.gap_choices_millis)
                now = start_millis + int(1.5 * est_max)
            lines.append((now, spec.end.render(now, eid, rng)))
        return lines, eid

    # ------------------------------------------------------------------
    def generate_stream(
        self,
        specs: Sequence[WorkflowSpec],
        events_per_workflow: int,
        start_millis: int,
        anomalies: Optional[Dict[str, List[str]]] = None,
        event_spacing_millis: int = 500,
    ) -> Tuple[List[str], List[InjectedAnomaly]]:
        """A time-ordered interleaved stream of events.

        ``anomalies`` maps workflow name → list of anomaly kinds to inject
        (each consumes one of that workflow's events).  Returns the raw
        lines sorted by timestamp and the injection ground truth.
        """
        anomalies = anomalies or {}
        pending: List[Tuple[int, str]] = []
        injected: List[InjectedAnomaly] = []
        offset = 0
        for spec in specs:
            kinds: List[Optional[str]] = list(anomalies.get(spec.name, []))
            if len(kinds) > events_per_workflow:
                raise ValueError(
                    "more anomalies than events for workflow %r" % spec.name
                )
            kinds += [None] * (events_per_workflow - len(kinds))
            self.rng.shuffle(kinds)
            for i, kind in enumerate(kinds):
                start = start_millis + offset
                offset += event_spacing_millis
                extreme = None
                if kind is None and i == 0:
                    extreme = "min"
                elif kind is None and i == 1:
                    extreme = "max"
                # The extremes must come from clean events: reassign if an
                # anomaly landed on slot 0/1.
                if kind is not None:
                    extreme = None
                lines, eid = self.generate_event(
                    spec, start, anomaly=kind, extreme=extreme
                )
                pending.extend(lines)
                if kind is not None:
                    injected.append(
                        InjectedAnomaly(
                            event_id=eid,
                            workflow=spec.name,
                            kind=kind,
                            needs_heartbeat=kind == "missing_end",
                        )
                    )
        pending.sort(key=lambda pair: pair[0])
        return [line for _, line in pending], injected


# ----------------------------------------------------------------------
# Format-diverse corpora (D3–D6, SQL case study)
# ----------------------------------------------------------------------
@dataclass
class CorpusDataset:
    """A format-diverse dataset for parser experiments."""

    name: str
    train: List[str]
    test: List[str]
    template_count: int


class TemplateCorpus:
    """Generate ``n_templates`` structurally distinct log templates.

    Each template is a random mix of literal vocabulary words and variable
    slots (number, IP, hex, UUID, word-choice); rendering draws fresh
    variable values.  Templates carry a unique tag literal so discovered
    pattern counts track template counts.
    """

    _SLOT_KINDS = ("number", "ip", "hex", "uuid", "choice")

    def __init__(
        self,
        n_templates: int,
        vocabulary: Sequence[str],
        seed: int = 11,
        min_len: int = 5,
        max_len: int = 12,
        with_timestamp: bool = True,
    ) -> None:
        if n_templates < 1:
            raise ValueError("n_templates must be >= 1")
        self.rng = random.Random(seed)
        self.vocabulary = list(vocabulary)
        self.with_timestamp = with_timestamp
        self._templates = [
            self._make_template(i, min_len, max_len)
            for i in range(n_templates)
        ]

    @property
    def template_count(self) -> int:
        return len(self._templates)

    # ------------------------------------------------------------------
    def _make_template(
        self, index: int, min_len: int, max_len: int
    ) -> List[Tuple[str, str]]:
        """A template: list of ('lit', word) / ('slot', kind) elements."""
        rng = self.rng
        length = rng.randint(min_len, max_len)
        elements: List[Tuple[str, str]] = [
            ("lit", "%s_%04d" % (rng.choice(self.vocabulary), index))
        ]
        for _ in range(length - 1):
            if rng.random() < 0.45:
                elements.append(("slot", rng.choice(self._SLOT_KINDS)))
            else:
                elements.append(("lit", rng.choice(self.vocabulary)))
        return elements

    def _render_slot(self, kind: str, rng: random.Random) -> str:
        if kind == "number":
            return str(rng.randint(0, 10_000_000))
        if kind == "ip":
            return ".".join(str(rng.randint(1, 254)) for _ in range(4))
        if kind == "hex":
            return "0x%08x" % rng.getrandbits(32)
        if kind == "uuid":
            return "%08x-%04x-%04x-%04x-%012x" % (
                rng.getrandbits(32),
                rng.getrandbits(16),
                rng.getrandbits(16),
                rng.getrandbits(16),
                rng.getrandbits(48),
            )
        return rng.choice(("started", "stopped", "running", "degraded"))

    # ------------------------------------------------------------------
    def render(self, n_logs: int, start_millis: int = BASE_TIME_MILLIS) -> List[str]:
        """Render ``n_logs`` lines, cycling templates, fresh variables."""
        rng = self.rng
        out: List[str] = []
        now = start_millis
        for i in range(n_logs):
            template = self._templates[i % len(self._templates)]
            parts: List[str] = []
            if self.with_timestamp:
                parts.append(render_timestamp(now))
                now += rng.randint(1, 50)
            for kind, payload in template:
                if kind == "lit":
                    parts.append(payload)
                else:
                    parts.append(self._render_slot(payload, rng))
            out.append(" ".join(parts))
        return out
