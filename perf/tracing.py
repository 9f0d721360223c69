"""Per-layer measurement: step-phase spans and a profile-based layer ledger.

Both recorders live here, outside ``src/``: this change records spans
from the benchmark's own files, around the calls into each layer.  They
are only ever switched on in traced rounds, so the measured rounds run
the service exactly as shipped.

* :class:`SpanRecorder` replaces public callables *on instances*
  (``service.step``, ``log_manager.cycle``, ...) with timing wrappers.
  A span is ``name / start / end / parent / step``; per-record callables
  (``observe``, ``store``) are coalesced into one span per run of calls
  so 40 000 calls do not become 40 000 spans.
* :func:`layer_ledger` folds a ``cProfile`` run into the repo's layers
  by module.  Self times (``tottime``) partition the profiled wall time
  exactly; time in builtins and the stdlib is charged to the layer that
  called it, through the profile's caller edges.
"""

from __future__ import annotations

import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "LAYER_TABLE",
    "layer_of",
    "SpanRecorder",
    "step_phases",
    "check_spans",
    "layer_ledger",
]

#: The repo's layers, in data-path order; ``other`` is everything that
#: is not on the serving path (and the benchmark's own frames).
LAYERS: Tuple[str, ...] = (
    "ingest",
    "service.bus",
    "service.log_manager",
    "service.storage",
    "streaming",
    "parsing.tokenizer",
    "parsing.timestamps",
    "parsing.index",
    "parsing.parser",
    "sequence",
    "service.heartbeat",
    "alerts",
    "obs",
    "service.step",
    "other",
)

#: Module (relative to ``src/repro``, no suffix) or package prefix
#: (trailing ``/``) -> layer.  Every module must match exactly one entry;
#: ``perf/tests`` fails on a module this table does not know, so a new
#: module is classified on purpose instead of landing in ``other``.
LAYER_TABLE: Dict[str, str] = {
    "ingest/": "ingest",
    "service/bus": "service.bus",
    "service/log_manager": "service.log_manager",
    "service/storage": "service.storage",
    "service/sqlite_store": "service.storage",
    "service/backends": "service.storage",
    "streaming/": "streaming",
    "parsing/tokenizer": "parsing.tokenizer",
    "parsing/timestamps": "parsing.timestamps",
    "parsing/index": "parsing.index",
    "parsing/matcher": "parsing.index",
    "parsing/grok": "parsing.index",
    "parsing/datatypes": "parsing.index",
    "parsing/signature": "parsing.index",
    "parsing/parser": "parsing.parser",
    "sequence/": "sequence",
    "service/heartbeat": "service.heartbeat",
    "alerts/": "alerts",
    "obs/": "obs",
    "service/loglens_service": "service.step",
    # Off the serving path: training, management plane, tooling.
    "__init__": "other",
    "errors": "other",
    "cli": "other",
    "bench/": "other",
    "baselines/": "other",
    "core/": "other",
    "datasets/": "other",
    "faults/": "other",
    "parsing/__init__": "other",
    "parsing/assembler": "other",
    "parsing/editing": "other",
    "parsing/fields": "other",
    "parsing/hierarchy": "other",
    "parsing/logmine": "other",
    "parsing/quality": "other",
    "parsing/suggest": "other",
    "service/__init__": "other",
    "service/agent": "other",
    "service/config": "other",
    "service/dashboard": "other",
    "service/fleet": "other",
    "service/model_builder": "other",
    "service/model_controller": "other",
    "service/model_manager": "other",
    "service/replay": "other",
    "service/scheduler": "other",
    "service/sections": "other",
}


def layer_matches(module: str) -> List[str]:
    """Every table entry that claims ``module`` (``a/b`` form)."""
    hits = []
    for entry in LAYER_TABLE:
        if entry.endswith("/"):
            if module.startswith(entry):
                hits.append(entry)
        elif module == entry:
            hits.append(entry)
    return hits


def layer_of(module: str) -> str:
    """The layer of a ``src/repro`` module; raises on unknown modules."""
    hits = layer_matches(module)
    if len(hits) != 1:
        raise KeyError(
            "module %r matches %d layer-table entries %r; classify it in "
            "perf/tracing.py LAYER_TABLE" % (module, len(hits), hits)
        )
    return LAYER_TABLE[hits[0]]


# ----------------------------------------------------------------------
# Step-phase spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory span log filled by instance-level wrappers.

    Each thread keeps its own open-span stack; spans opened on the
    stepping thread inside ``step`` carry that step's id, spans from
    other threads (the ingest server's ``ingest`` calls) carry ``None``.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent, step, calls, busy, thread]``
        self.spans: List[List[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._step_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
            self._local.step = None
            self._local.last = None
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        is_step: bool = False,
        coalesce: bool = False,
    ) -> None:
        """Shadow ``owner.attr`` with a span-recording wrapper."""
        inner: Callable[..., Any] = getattr(owner, attr)
        spans = self.spans
        local = self._local
        stack_of = self._stack
        lock = self._lock

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            parent = stack[-1] if stack else None
            if coalesce:
                last = local.last
                if last is not None and last[0] == (name, parent):
                    row = spans[last[1]]
                    started = perf_counter()
                    try:
                        return inner(*args, **kwargs)
                    finally:
                        ended = perf_counter()
                        row[2] = ended
                        row[5] += 1
                        row[6] += ended - started
            if is_step:
                with lock:
                    self._step_id += 1
                    local.step = self._step_id
            with lock:
                index = len(spans)
                row = [
                    name, 0.0, 0.0, parent, local.step, 1, 0.0,
                    threading.get_ident(),
                ]
                spans.append(row)
            stack.append(index)
            local.last = None
            started = perf_counter()
            row[1] = started
            try:
                return inner(*args, **kwargs)
            finally:
                ended = perf_counter()
                row[2] = ended
                row[6] = ended - started
                stack.pop()
                local.last = ((name, parent), index) if coalesce else None
                if is_step:
                    local.step = None

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (README: reading spans)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, row in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": row[0],
                            "start": row[1],
                            "end": row[2],
                            "parent": row[3],
                            "step": row[4],
                            "calls": row[5],
                            "busy": row[6],
                            "thread": row[7],
                        }
                    )
                    + "\n"
                )


#: Direct children of ``step`` that make up the named step phases.
_PHASE_OF_SPAN = {
    "log_manager.cycle": "cycle",
    "parse_ctx.run_batch": "parse",
    "heartbeat.observe": "observe",
    "heartbeat.tick": "tick",
    "seq_ctx.run_batch": "sequence",
    "alerts.evaluate": "alert",
    "anomaly_storage.all": "account",
    "anomaly_storage.count": "account",
}
STEP_PHASES = (
    "cycle", "parse", "observe", "tick", "sequence", "alert", "account",
    "other",
)


def step_phases(
    spans: List[List[Any]], skip_steps: int = 0
) -> Dict[int, Dict[str, float]]:
    """Per step id: seconds in each phase, plus ``total`` and ``covered``.

    ``other`` is the step's wall time not inside a named phase (record
    construction, polling, event keys, unstamped-anomaly stores).
    ``covered`` is the share of the step inside *any* direct child span.
    """
    steps: Dict[int, Dict[str, float]] = {}
    step_span: Dict[int, int] = {}
    for index, row in enumerate(spans):
        if row[0] == "service.step":
            step_span[index] = row[4]
            phases = dict.fromkeys(STEP_PHASES, 0.0)
            phases["total"] = row[2] - row[1]
            phases["covered"] = 0.0
            steps[row[4]] = phases
    for row in spans:
        step_id = step_span.get(row[3])
        if step_id is None:
            continue
        phases = steps[step_id]
        phases["covered"] += row[6]
        phase = _PHASE_OF_SPAN.get(row[0])
        if phase is not None:
            phases[phase] += row[6]
    for phases in steps.values():
        named = sum(phases[p] for p in STEP_PHASES if p != "other")
        phases["other"] = max(0.0, phases["total"] - named)
    return {k: v for k, v in steps.items() if k > skip_steps}


def check_spans(spans: List[List[Any]]) -> List[str]:
    """Structural self-check: nesting and step ids; returns violations."""
    problems: List[str] = []
    for index, row in enumerate(spans):
        name, start, end, parent, step = row[0], row[1], row[2], row[3], row[4]
        if end < start:
            problems.append("span %d (%s) ends before it starts" % (index, name))
        if parent is None:
            continue
        up = spans[parent]
        if up[7] != row[7]:
            problems.append(
                "span %d (%s) has a parent on another thread" % (index, name)
            )
        if start < up[1] or end > up[2]:
            problems.append(
                "span %d (%s) is not nested inside its parent %d (%s)"
                % (index, name, parent, up[0])
            )
        if up[4] != step:
            problems.append(
                "span %d (%s) has step id %r but its parent has %r"
                % (index, name, step, up[4])
            )
    return problems[:20]


# ----------------------------------------------------------------------
# Layer ledger
# ----------------------------------------------------------------------
def _module_of(filename: str, repro_root: str) -> Optional[str]:
    if not filename.startswith(repro_root):
        return None
    relative = filename[len(repro_root):].lstrip(os.sep)
    if relative.endswith(".py"):
        relative = relative[:-3]
    return relative.replace(os.sep, "/")


#: Builtins whose self time is waiting, not work: kept out of every
#: layer and returned separately so the ledger still closes.
_IDLE_BUILTINS = (
    "<built-in method time.sleep>",
    "<method 'poll' of 'select.epoll' objects>",
)


def layer_ledger(
    stats: Dict[Tuple[str, int, str], Tuple[Any, ...]], repro_root: str
) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Fold ``pstats`` rows into ``({layer: {"self_s", "calls"}}, idle_s)``.

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (nc, cc, tt, ct)``.  A function
    inside ``src/repro`` is charged to its module's layer.  Anything
    else (builtins, ``re``, ``json``, ``sqlite3``, this benchmark)
    passes its self time up the caller edges — split by each edge's own
    ``tt`` — until it reaches a ``repro`` frame; time that never does
    stays in ``other``.  Every second of ``tottime`` lands in exactly
    one layer or in ``idle_s`` (sleeping, polling an idle socket), so
    the ledger plus the idle time sums to the profile's total.
    """
    repro_root = os.path.join(os.path.abspath(repro_root), "")
    own_layer: Dict[Tuple[str, int, str], Optional[str]] = {}
    for func in stats:
        module = _module_of(func[0], repro_root)
        own_layer[func] = layer_of(module) if module is not None else None

    memo: Dict[Tuple[str, int, str], Dict[str, float]] = {}

    def shares(func: Tuple[str, int, str], depth: int) -> Dict[str, float]:
        """Layer shares (summing to 1) that ``func``'s time belongs to."""
        layer = own_layer.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard while computing
        callers = stats[func][4] if func in stats else {}
        weights = {
            caller: edge[3] for caller, edge in callers.items() if edge[3] > 0
        }
        total = sum(weights.values())
        if not weights or depth > 12:
            return memo[func]
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer_name, share in shares(caller, depth + 1).items():
                out[layer_name] = (
                    out.get(layer_name, 0.0) + share * weight / total
                )
        memo[func] = out
        return out

    ledger = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    idle = 0.0
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if func[2] in _IDLE_BUILTINS:
            idle += tottime
            continue
        layer = own_layer[func]
        if layer is not None:
            ledger[layer]["self_s"] += tottime
            ledger[layer]["calls"] += ncalls
            continue
        # Foreign frame: each caller edge carries its own tt.
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0:
            ledger["other"]["self_s"] += tottime
            continue
        for caller, edge in callers.items():
            portion = tottime * edge[2] / edge_total
            for layer_name, share in shares(caller, 0).items():
                ledger[layer_name]["self_s"] += portion * share
    return ledger, idle


def repro_modules(repro_root: str) -> Iterable[str]:
    """Every module under ``src/repro`` in ``a/b`` form."""
    root = os.path.abspath(repro_root)
    for directory, _dirs, files in os.walk(root):
        for filename in sorted(files):
            if filename.endswith(".py"):
                module = _module_of(
                    os.path.join(directory, filename),
                    os.path.join(root, ""),
                )
                if module is not None:
                    yield module
