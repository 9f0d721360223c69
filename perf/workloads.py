"""Seeded workload generators: the only place benchmark inputs come from.

``--seed`` is the single input; the service under test only ever sees
the generated lines.  Every generator returns a :class:`Workload` whose
``train`` split builds the models and whose ``stream`` is replayed
byte-for-byte by every round.  Seeds change the bytes (ids, addresses,
template shapes, anomaly positions) but not the amount of work: line
counts, anomaly shares and template counts are fixed by ``--seconds``.

Why each workload exists is recorded in ``WORKLOADS`` (and README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Sequence, Tuple

# ``repro.datasets`` is imported inside the generators: the parent
# process imports this module for the constants only and must stay free
# of ``repro`` so that ``import`` is a set-up phase of the rounds alone.

__all__ = [
    "SHAPES",
    "WORKLOADS",
    "Workload",
    "timed_batches_for",
    "generate",
    "write_workload",
    "read_train",
    "read_stream",
    "batches",
]

#: Per workload: lines per closed-loop batch (one ``ingest`` per source
#: plus one ``step``) and how many leading batches are the ``warmup``
#: set-up phase — lazy parser construction, index group build (1 000
#: templates need 1 000 lines to be touched once), SQLite schema
#: learning.  ``formats`` and ``durable`` cost ~40 % more per line than
#: ``events``, so their batches are smaller to keep a run inside the
#: driver's time cap with 200 timed samples and four rounds.
SHAPES: Dict[str, Tuple[int, int]] = {
    "events": (150, 8),
    "formats": (100, 12),
    "durable": (100, 8),
    # ``socket`` ships the ``events`` lines; its warm-up is sent in
    # batches of this size, its timed phases have their own shapes.
    "socket": (150, 8),
}
#: Timed samples per round never drop below this (p95 then has ten
#: samples beyond it).
MIN_TIMED_BATCHES = 200
#: ``--seconds`` buys timed batches at this rate: the reference box
#: replays ~200 batches in ~3 s and a run has four rounds.
REFERENCE_SECONDS = 12

WORKLOADS: Dict[str, str] = {
    "events": (
        "scaled D1 event traces in memory: every line is parsed and is "
        "part of a stateful event, 7 patterns, 21 anomalies - tokenizer, "
        "timestamps, shuffle, detector and heartbeat work; index and "
        "storage idle"
    ),
    "formats": (
        "1000 templates in four timestamp formats over four interleaved "
        "sources, 1% garbage, empty sequence model - index lookup and "
        "timestamp diversity work; detector and heartbeat expiry idle"
    ),
    "durable": (
        "events with 5% anomalous events and 1% garbage on SQLite with "
        "three alert rules - storage writes every line while alert "
        "windows and step accounting read the anomaly table back"
    ),
    "socket": (
        "the events stream from a separate generator process over TCP: "
        "paced open loop at 3000 lines/s for latency, then a blast for "
        "throughput - small steps, front door and bus path dominate"
    ),
}

#: Source name of the single-source event streams.
EVENT_SOURCE = "d1"

_TRAIN_EVENTS_PER_WORKFLOW = 1600
_FORMATS_TEMPLATES = 1000
_FORMATS_TRAIN_LINES = 6000
_ONE_HOUR_MILLIS = 3_600_000

_VOCABULARY = (
    "bgp", "ospf", "interface", "neighbor", "adjacency", "route",
    "prefix", "vlan", "trunk", "spanning", "tree", "link", "duplex",
    "carrier", "line", "protocol", "up", "down", "flap", "mtu",
    "buffer", "drop", "crc", "collision", "broadcast", "multicast",
    "acl", "nat", "tunnel", "peer", "session", "hold", "timer",
)
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_ANOMALY_KINDS = (
    "missing_end",
    "missing_intermediate",
    "occurrence_violation",
    "duration_violation",
    "missing_begin",
)


@dataclass
class Workload:
    """One seeded input set: training lines plus the tagged stream."""

    name: str
    seed: int
    train: List[str]
    #: ``(source, raw line)`` in arrival order.
    stream: List[Tuple[str, str]]
    #: Event ids of injected anomalous events (ground truth).
    injected: List[str] = field(default_factory=list)
    #: True when the sequence model must be left empty.
    stateless: bool = False


def timed_batches_for(seconds: float) -> int:
    """How many timed batches a round replays for ``--seconds``."""
    scaled = int(round(MIN_TIMED_BATCHES * seconds / REFERENCE_SECONDS))
    return max(MIN_TIMED_BATCHES, scaled)


def _total_lines(name: str, seconds: float) -> int:
    batch_lines, warmup_batches = SHAPES[name]
    return (warmup_batches + timed_batches_for(seconds)) * batch_lines


# ----------------------------------------------------------------------
# events / durable / socket: the D1 workflows
# ----------------------------------------------------------------------
def _junk(rng: random.Random) -> str:
    """A line body no learned pattern matches (wrong literals, length)."""
    return "kernel: BUG soft lockup cpu#%d stuck for %ds [kworker:%d] %s" % (
        rng.randint(0, 63),
        rng.randint(20, 90),
        rng.randint(100, 99999),
        "".join(rng.choice("ghjkmpqrstvwxz") for _ in range(9)),
    )


def _event_workload(
    name: str,
    seed: int,
    seconds: float,
    anomalous_share: float,
    garbage_share: float,
) -> Workload:
    from repro.datasets.base import BASE_TIME_MILLIS, EventStreamGenerator
    from repro.datasets.trace import D1_ANOMALY_PLAN, make_workflows

    workflows = make_workflows()
    gen = EventStreamGenerator(seed=seed)
    train, _ = gen.generate_stream(
        workflows,
        events_per_workflow=_TRAIN_EVENTS_PER_WORKFLOW,
        start_millis=BASE_TIME_MILLIS,
    )
    # vm-provision averages 5 lines per event and volume-attach 3.5.
    events_per_workflow = int(round(_total_lines(name, seconds) / 8.5))
    if anomalous_share:
        count = int(events_per_workflow * anomalous_share)
        plan = {
            spec.name: [
                _ANOMALY_KINDS[i % len(_ANOMALY_KINDS)] for i in range(count)
            ]
            for spec in workflows
        }
    else:
        plan = D1_ANOMALY_PLAN
    test, injected = gen.generate_stream(
        workflows,
        events_per_workflow=events_per_workflow,
        start_millis=BASE_TIME_MILLIS + _ONE_HOUR_MILLIS,
        anomalies=plan,
    )
    if garbage_share:
        rng = random.Random(seed * 7919 + 1)
        mixed: List[str] = []
        for line in test:
            mixed.append(line)
            if rng.random() < garbage_share:
                stamp = " ".join(line.split(" ", 2)[:2])
                mixed.append("%s %s" % (stamp, _junk(rng)))
        test = mixed
    return Workload(
        name=name,
        seed=seed,
        train=train,
        stream=[(EVENT_SOURCE, line) for line in test],
        injected=[a.event_id for a in injected],
    )


# ----------------------------------------------------------------------
# formats: 1 000 templates, four timestamp renderings
# ----------------------------------------------------------------------
def _render_stamp(kind: int, millis: int) -> str:
    """``millis`` in one of four detector-supported formats."""
    moment = datetime.fromtimestamp(millis // 1000, tz=timezone.utc)
    milli = millis % 1000
    if kind == 0:
        return moment.strftime("%Y/%m/%d %H:%M:%S") + ".%03d" % milli
    if kind == 1:
        return moment.strftime("%Y-%m-%dT%H:%M:%S") + ".%03dZ" % milli
    if kind == 2:
        return "%s %2d %s" % (
            _MONTHS[moment.month - 1],
            moment.day,
            moment.strftime("%H:%M:%S"),
        )
    return str(millis)


def _formats_lines(
    corpus: "TemplateCorpus",
    rng: random.Random,
    count: int,
    start_millis: int,
    garbage_share: float,
) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    now = start_millis
    for i, body in enumerate(corpus.render(count)):
        now += rng.randint(1, 50)
        # Rotate the format against the template cycle so every
        # template is seen in every format and every batch holds all
        # four sources.
        kind = (i + i // _FORMATS_TEMPLATES) % 4
        stamp = _render_stamp(kind, now)
        if rng.random() < garbage_share:
            body = _junk(rng)
        out.append(("fmt%d" % kind, "%s %s" % (stamp, body)))
    return out


def _formats_workload(seed: int, seconds: float) -> Workload:
    from repro.datasets.base import BASE_TIME_MILLIS, TemplateCorpus

    corpus = TemplateCorpus(
        n_templates=_FORMATS_TEMPLATES,
        vocabulary=_VOCABULARY,
        seed=seed,
        with_timestamp=False,
    )
    rng = random.Random(seed * 7919 + 2)
    train = _formats_lines(
        corpus, rng, _FORMATS_TRAIN_LINES, BASE_TIME_MILLIS, 0.0
    )
    stream = _formats_lines(
        corpus,
        rng,
        _total_lines("formats", seconds),
        BASE_TIME_MILLIS + _ONE_HOUR_MILLIS,
        0.01,
    )
    return Workload(
        name="formats",
        seed=seed,
        train=[line for _, line in train],
        stream=stream,
        stateless=True,
    )


def generate(name: str, seed: int, seconds: float) -> Workload:
    """The workload ``name`` for ``seed``, sized for ``seconds``."""
    if name in ("events", "socket"):
        # ``socket`` ships the very same lines, so its anomaly multiset
        # must equal ``events``' for the same seed.
        return _event_workload(name, seed, seconds, 0.0, 0.0)
    if name == "durable":
        return _event_workload(name, seed, seconds, 0.05, 0.01)
    if name == "formats":
        return _formats_workload(seed, seconds)
    raise ValueError(
        "unknown workload %r; choose from %s" % (name, ", ".join(WORKLOADS))
    )


# ----------------------------------------------------------------------
# Files: written once per run, read by every round
# ----------------------------------------------------------------------
def write_workload(workload: Workload, directory: str) -> Dict[str, str]:
    """Write the splits under ``directory``; returns their paths."""
    train_path = "%s/train.txt" % directory
    stream_path = "%s/stream.tsv" % directory
    with open(train_path, "w", encoding="utf-8") as handle:
        for line in workload.train:
            handle.write(line + "\n")
    with open(stream_path, "w", encoding="utf-8") as handle:
        for source, line in workload.stream:
            handle.write("%s\t%s\n" % (source, line))
    return {"train": train_path, "stream": stream_path}


def read_train(path: str) -> List[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def read_stream(path: str) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    with open(path, encoding="utf-8") as handle:
        for row in handle.read().splitlines():
            source, _, line = row.partition("\t")
            out.append((source, line))
    return out


def batches(
    stream: Sequence[Tuple[str, str]], size: int
) -> List[List[Tuple[str, List[str]]]]:
    """Slice the stream into batches, each grouped by source in order."""
    out: List[List[Tuple[str, List[str]]]] = []
    for start in range(0, len(stream), size):
        grouped: Dict[str, List[str]] = {}
        for source, line in stream[start:start + size]:
            grouped.setdefault(source, []).append(line)
        out.append(list(grouped.items()))
    return out
