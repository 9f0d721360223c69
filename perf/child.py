"""One round of one workload, in a fresh process.

``python3 perf/child.py SPEC.json`` is started by ``perf/run.py`` with
``PYTHONHASHSEED=0``.  A round imports ``repro``, builds the models from
the training split, constructs and wires the service, replays the
stream through public entry points only, and dumps its *raw* samples —
the parent owns every estimator.  Three modes share this file:

* ``prepare`` generates the workload files and computes the reference
  anomaly multiset with the ``LogLens`` facade (parser + detector, no
  bus, engine or service), once per run and outside any timing;
* ``plain`` is a measured round: the service runs exactly as shipped;
* ``spans`` / ``ledger`` are the traced rounds (``perf/tracing.py``).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import measure  # noqa: E402  (stdlib-only sibling)

MARKER = "BENCH-MARK"
#: Socket workload shape (README: "socket").
PACED_BATCH_LINES = 50
PACED_HZ = 60
BLAST_BATCH_LINES = 50
IDLE_STEP_SECONDS = 0.050
IDLE_WAIT_SECONDS = 0.001
#: The stepping thread calibrates at most this often while serving, so
#: the kernel's ~1 ms never lands on more than a few percent of steps.
SERVE_CAL_EVERY_SECONDS = 0.040
SOCKET_DEADLINE_SECONDS = 150.0


def pin_to_cpu(cpu: Optional[int]) -> None:
    """Pin this process to one CPU (calibration must share the sample's
    core: the two vCPUs of the reference box differ in speed by 1.5x)."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[cpu % len(allowed)]})


class Ticker:
    """Runs the calibration kernel from an interval timer.

    Long single calls (``import``, ``ModelBuilder.build``, a 10 000-line
    ``step()``) cannot be bracketed finely enough from outside — the
    host's speed changes several times a second — so SIGALRM interrupts
    them every ``TICK_SECONDS`` and the kernel runs in the handler.
    """

    TICK_SECONDS = 0.015

    def __init__(self) -> None:
        #: ``(start, cost)`` of every kernel run, CLOCK_MONOTONIC seconds.
        self.ticks: List[Tuple[float, float]] = []
        self._previous: Any = None

    def _tick(self, *_signal: Any) -> None:
        started = time.monotonic()
        self.ticks.append((started, measure.calibrate()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(
            signal.ITIMER_REAL, self.TICK_SECONDS, self.TICK_SECONDS
        )

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def seconds(self) -> float:
        """Reference-core seconds of work between start and stop.

        Slice *i* is the work between the end of kernel run *i* and the
        start of run *i + 1*, at the speed the surrounding runs
        measured; the kernel's own time is nobody's work.
        """
        ticks = self.ticks
        speeds = measure.speeds([cost for _, cost in ticks])
        return sum(
            (ticks[i + 1][0] - (ticks[i][0] + ticks[i][1])) / speeds[i]
            for i in range(len(ticks) - 1)
        )


class Phases:
    """Set-up phases in reference-core seconds."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def skip(self, name: str) -> None:
        self.seconds[name] = 0.0

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        ticker = Ticker()
        ticker.start()
        try:
            yield
        finally:
            ticker.stop()
            self.seconds[name] = ticker.seconds()


def anomaly_key(doc: Dict[str, Any]) -> Optional[Tuple[str, Optional[str]]]:
    """``(type, event id)`` of a stored anomaly; ``None`` for markers."""
    logs = doc.get("logs") or ()
    if logs and logs[0].startswith(MARKER):
        return None
    return (doc["type"], (doc.get("details") or {}).get("event_id"))


def multiset(keys: Any) -> List[List[Any]]:
    """A JSON-safe, order-free rendering of a multiset of keys."""
    counted = Counter(key for key in keys if key is not None)
    return sorted(
        ([kind, event, count] for (kind, event), count in counted.items()),
        key=lambda row: (row[0], row[1] or "", row[2]),
    )


def metric_total(metrics: Dict[str, Any], name: str) -> float:
    """Sum of a registry family's values across label sets."""
    return sum(
        series.get("value", series.get("count", 0.0))
        for series in metrics.get(name, ())
    )


# ----------------------------------------------------------------------
# prepare: workload files + reference
# ----------------------------------------------------------------------
def prepare(spec: Dict[str, Any]) -> Dict[str, Any]:
    sys.path.insert(0, spec["src"])
    import workloads
    from repro.core.pipeline import LogLens
    from repro.sequence.model import SequenceModel
    from repro.service.model_builder import ModelBuilder

    workload = workloads.generate(
        spec["workload"], spec["seed"], spec["seconds"]
    )
    paths = workloads.write_workload(workload, spec["workdir"])
    built = ModelBuilder().build(workload.train)
    sequence_model = (
        SequenceModel([]) if workload.stateless else built.sequence_model
    )
    models_path = os.path.join(spec["workdir"], "reference-models.json")
    with open(models_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "pattern_model": built.pattern_model.to_dict(),
                "sequence_model": sequence_model.to_dict(),
            },
            handle,
        )
    lens = LogLens().load(models_path)
    anomalies = lens.detect([line for _, line in workload.stream])
    return {
        "train": paths["train"],
        "stream": paths["stream"],
        "stateless": workload.stateless,
        "injected": workload.injected,
        "reference": multiset(
            (a.type.value, a.details.get("event_id")) for a in anomalies
        ),
    }


# ----------------------------------------------------------------------
# a round
# ----------------------------------------------------------------------
def _alert_rules() -> Tuple[Any, ...]:
    from repro.alerts import AlertRule

    return (
        AlertRule(
            name="anomaly-burst",
            signal="anomaly_rate",
            condition=">=",
            threshold=5,
            window_millis=60_000,
        ),
        AlertRule(
            name="unparsed-burst",
            signal="anomaly_rate",
            condition=">",
            threshold=2,
            window_millis=30_000,
            anomaly_type="unparsed_log",
        ),
        AlertRule(
            name="detector-quiet",
            signal="anomaly_rate",
            condition="stale",
            window_millis=120_000,
        ),
    )


def run_round(spec: Dict[str, Any]) -> Dict[str, Any]:
    pin_to_cpu(spec.get("cpu"))
    mode = spec["mode"]
    workload = spec["workload"]
    phases = Phases()
    host_cal = sorted(measure.calibrate() for _ in range(25))[12]

    with phases.phase("import"):
        sys.path.insert(0, spec["src"])
        import repro  # noqa: F401
        from repro.alerts import CollectingSink
        from repro.ingest import (
            IngestServerThread,
            front_door,
            service_pending,
        )
        from repro.obs import MetricsRegistry
        from repro.sequence.model import SequenceModel
        from repro.service.config import AlertsConfig, ServiceConfig
        from repro.service.loglens_service import LogLensService
        from repro.service.model_builder import BuiltModels, ModelBuilder

    import workloads

    train = workloads.read_train(spec["train"])

    with phases.phase("build_models"):
        models = ModelBuilder().build(train)
        if spec["stateless"]:
            models = BuiltModels(
                pattern_model=models.pattern_model,
                sequence_model=SequenceModel([]),
            )

    storage = None
    sink = None
    alerts = AlertsConfig()
    if workload == "durable":
        storage = "sqlite:%s" % os.path.join(spec["rounddir"], "bench.db")
        sink = CollectingSink()
        alerts = AlertsConfig(rules=_alert_rules(), sinks=(sink,))

    def construct() -> Any:
        return LogLensService(
            config=ServiceConfig(
                execution="serial",
                metrics=MetricsRegistry(),
                storage=storage,
                alerts=alerts,
            )
        )

    with phases.phase("construct_publish"):
        service = construct()
        service.model_manager.register_built(models)
        service.model_manager.publish_all()
        service.flush_model_updates()

    recorder = None
    if mode == "spans":
        import tracing

        recorder = tracing.SpanRecorder()
        _wrap_service(recorder, service)

    out: Dict[str, Any] = {"mode": mode, "workload": workload}
    if workload == "socket":
        server_profiler = None
        if mode == "ledger":
            # The server thread is created inside IngestServerThread;
            # the only way to profile it from outside is the
            # new-thread profile hook, which swaps itself for cProfile
            # on the thread's first event.
            import cProfile

            server_profiler = cProfile.Profile()
            threading.setprofile(lambda *_event: server_profiler.enable())
        with phases.phase("listen"):
            door = front_door(service, http_port=None)
            thread = IngestServerThread(door).start()
        threading.setprofile(None)
        try:
            out.update(
                _serve(
                    spec, service, door, thread, phases, service_pending,
                    server_profiler,
                )
            )
        finally:
            thread.stop()
            service.run_until_drained()
    else:
        phases.skip("listen")
        stream = workloads.read_stream(spec["stream"])
        out.update(_replay(spec, service, stream, phases, recorder))
    service.final_flush()

    # ------------------------------------------------------------------
    # Outputs (outside every timed region).
    # ------------------------------------------------------------------
    report = service.report(include_metrics=True)
    metrics = report.metrics or {}
    docs = service.anomaly_storage.all()
    out["anomalies"] = multiset(anomaly_key(doc) for doc in docs)
    out["anomaly_docs"] = len(docs)
    out["logs_archived"] = report.logs_archived
    out["open_events_end"] = report.open_events
    out["quarantined"] = report.quarantine.quarantined
    out["patterns"] = len(models.pattern_model.patterns)
    out["unparsed"] = sum(1 for d in docs if d["type"] == "unparsed_log")
    out["sequence_anomalies"] = sum(
        1 for d in docs if d["type"] != "unparsed_log"
    )
    out["alerts_evals"] = metric_total(metrics, "alerts.evaluations")
    out["alerts_fired"] = (report.alerts or {}).get("fired", 0)
    out["alerts_delivered"] = len(sink.events) if sink is not None else 0
    out["backlog_end"] = service_pending(service)
    out["db_mb"] = 0.0
    out["on_tmpfs"] = 0
    service.close()
    if storage is not None:
        db_path = storage.split(":", 1)[1]
        out["db_mb"] = os.path.getsize(db_path) / 1e6
        out["on_tmpfs"] = int(
            os.path.realpath(db_path).startswith("/dev/shm")
        )
        # Durability: everything must read back after close-and-reopen.
        reopened = construct()
        try:
            out["reopened_logs"] = reopened.log_storage.count()
            out["reopened_anomalies"] = multiset(
                anomaly_key(doc) for doc in reopened.anomaly_storage.all()
            )
        finally:
            reopened.close()
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out["phases"] = phases.seconds
    out["host_cal"] = host_cal
    out["cpu_count"] = os.cpu_count()
    if recorder is not None:
        recorder.write(spec["spans_path"])
        out["spans"] = recorder.spans
    return out


def _wrap_service(recorder: Any, service: Any) -> None:
    """Span wrappers on the public callables of one service instance."""
    wrap = recorder.wrap
    # ``ingest`` first: the front door captures the bound method.
    wrap(service, "ingest", "service.ingest")
    wrap(service, "step", "service.step", is_step=True)
    wrap(service.bus, "produce_many", "bus.produce_many")
    wrap(service.log_manager, "cycle", "log_manager.cycle")
    wrap(service.log_storage, "store_batch", "log_storage.store_batch")
    wrap(service.parse_ctx, "run_batch", "parse_ctx.run_batch")
    wrap(
        service.heartbeat_controller, "observe", "heartbeat.observe",
        coalesce=True,
    )
    wrap(service.heartbeat_controller, "tick", "heartbeat.tick")
    wrap(service.seq_ctx, "run_batch", "seq_ctx.run_batch")
    wrap(
        service.anomaly_storage, "store", "anomaly_storage.store",
        coalesce=True,
    )
    wrap(service.anomaly_storage, "all", "anomaly_storage.all")
    wrap(service.anomaly_storage, "count", "anomaly_storage.count")
    wrap(service.alert_evaluator, "evaluate", "alerts.evaluate")


# ----------------------------------------------------------------------
# closed loop (events / formats / durable)
# ----------------------------------------------------------------------
def _replay(
    spec: Dict[str, Any],
    service: Any,
    stream: List[Tuple[str, str]],
    phases: Phases,
    recorder: Any,
) -> Dict[str, Any]:
    import workloads

    mode = spec["mode"]
    batch_lines, warmup_batches = workloads.SHAPES[spec["workload"]]
    batches = workloads.batches(stream, batch_lines)
    warm = batches[:warmup_batches]
    timed = batches[warmup_batches:]

    def offer(batch: List[Tuple[str, List[str]]]) -> None:
        for source, lines in batch:
            service.ingest(lines, source)
        service.step()

    with phases.phase("warmup"):
        for batch in warm:
            offer(batch)

    wall: List[float] = []
    cpu: List[float] = []
    cal: List[float] = []
    open_events_max = 0
    profiler = None
    if mode == "ledger":
        import cProfile

        profiler = cProfile.Profile()
    cal.append(measure.calibrate())
    replay_started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    for batch in timed:
        cpu_started = time.process_time()
        started = time.perf_counter()
        offer(batch)
        ended = time.perf_counter()
        cpu.append(time.process_time() - cpu_started)
        wall.append(ended - started)
        if profiler is None:
            cal.append(measure.calibrate())
        if recorder is not None:
            open_events_max = max(
                open_events_max, service.open_event_count()
            )
    if profiler is not None:
        profiler.disable()
    replay_wall = time.perf_counter() - replay_started
    if profiler is not None:
        cal.append(measure.calibrate())
    out: Dict[str, Any] = {
        "wall": wall,
        "cpu": cpu,
        "cal": cal,
        "replay_wall": replay_wall,
        "timed_lines": sum(
            len(lines) for batch in timed for _, lines in batch
        ),
        "offered_lines": len(stream),
        "open_events_max": open_events_max,
    }
    if profiler is not None:
        out["ledger"] = _ledger([profiler], spec)
    return out


def _ledger(profilers: List[Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """Layer ledger of one or more profiles (one per profiled thread).

    ``profile_total`` is the first profile's total self time — the
    stepping thread's, whose wall clock the round measured — so the
    parent can check that the ledger closes against it.
    """
    import pstats

    import tracing

    root = os.path.join(spec["src"], "repro")
    layers = {name: {"self_s": 0.0, "calls": 0.0} for name in tracing.LAYERS}
    idle = 0.0
    totals = []
    for profiler in profilers:
        stats = pstats.Stats(profiler).stats
        totals.append(sum(row[2] for row in stats.values()))
        ledger, waited = tracing.layer_ledger(stats, root)
        idle += waited
        for name, row in ledger.items():
            layers[name]["self_s"] += row["self_s"]
            layers[name]["calls"] += row["calls"]
    return {
        "layers": layers,
        "idle_s": idle,
        "profile_total": totals[0],
        "all_profiles_total": sum(totals),
    }


# ----------------------------------------------------------------------
# socket: generator process -> TCP front door -> stepping loop
# ----------------------------------------------------------------------
def _serve(
    spec: Dict[str, Any],
    service: Any,
    door: Any,
    thread: Any,
    phases: Phases,
    service_pending: Any,
    server_profiler: Any,
) -> Dict[str, Any]:
    """Serve the generator's three phases the way ``loglens serve`` does.

    The loop steps whenever the bus has backlog, else every 50 ms, and
    after each step reads the anomalies that step made visible.  The
    generator's marker lines (unparseable, so each becomes an
    ``unparsed_log`` anomaly) carry their due time on the shared
    CLOCK_MONOTONIC; a marker's latency ends when its anomaly is read.
    """
    paced_batches = spec["timed_batches"]
    generator = subprocess.Popen(
        [
            sys.executable,
            os.path.join(HERE, "generator.py"),
            json.dumps(
                {
                    "src": spec["src"],
                    "port": thread.tcp_port,
                    "stream": spec["stream"],
                    "cpu": None if spec.get("cpu") is None
                    else spec["cpu"] + 1,
                    "paced_batches": paced_batches,
                    "paced_batch_lines": PACED_BATCH_LINES,
                    "paced_hz": PACED_HZ,
                    "blast_batch_lines": BLAST_BATCH_LINES,
                }
            ),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    markers: List[List[Any]] = []
    steps: List[List[float]] = []
    cals: List[List[float]] = []
    seen_labels: Dict[str, int] = {}
    state = {
        "reported": 0, "backlog_max": 0, "last_cal": 0,
        # Paced steps calibrate right after themselves (never inside a
        # step: that would add the kernel to a marker's latency).
        "calibrate": spec["mode"] != "ledger",
    }
    profiler = None
    ticker = Ticker()

    def step_once() -> None:
        pending = service_pending(service)
        if pending > state["backlog_max"]:
            state["backlog_max"] = pending
        cpu_started = time.thread_time()
        started = time.monotonic_ns()
        report = service.step()
        docs = service.anomaly_storage.all()
        seen = time.monotonic_ns()
        steps.append(
            [started, seen, report.ingested, time.thread_time() - cpu_started]
        )
        for doc in docs[state["reported"]:]:
            logs = doc.get("logs") or ()
            if logs and logs[0].startswith(MARKER):
                _, label, value = logs[0].split()
                markers.append([label, int(value), seen])
                seen_labels[label] = seen
        state["reported"] = len(docs)
        if (
            state["calibrate"]
            and seen - state["last_cal"] >= SERVE_CAL_EVERY_SECONDS * 1e9
        ):
            cals.append([seen, measure.calibrate()])
            state["last_cal"] = time.monotonic_ns()

    deadline = time.perf_counter() + SOCKET_DEADLINE_SECONDS

    def serve_until(label: str) -> None:
        last_step = 0.0
        while label not in seen_labels:
            now = time.perf_counter()
            if now > deadline:
                raise TimeoutError("marker %r never became visible" % label)
            if (
                service_pending(service) > 0
                or now - last_step >= IDLE_STEP_SECONDS
            ):
                step_once()
                last_step = time.perf_counter()
            else:
                time.sleep(IDLE_WAIT_SECONDS)

    def tell(word: str) -> None:
        generator.stdin.write(word + "\n")
        generator.stdin.flush()

    try:
        # The generator's own start-up is not the service's set-up.
        hello = generator.stdout.readline()
        if not hello.startswith("ready"):
            raise RuntimeError("generator failed to start: %r" % hello)
        with phases.phase("warmup"):
            tell("warmup")
            serve_until("warmup")
        steps.clear()
        cals.clear()
        del markers[:]
        state["backlog_max"] = 0

        if spec["mode"] == "ledger":
            import cProfile

            profiler = cProfile.Profile()
        cals.append([time.monotonic_ns(), measure.calibrate()])
        state["last_cal"] = time.monotonic_ns()
        server_cpu_started = _server_thread_cpu()
        cpu_started = time.process_time()
        paced_started = time.monotonic_ns()
        tell("go")
        if profiler is not None:
            profiler.enable()
        serve_until("p%d" % (paced_batches - 1))
        paced_cpu = time.process_time() - cpu_started
        paced_ended = time.monotonic_ns()
        paced_backlog_max = state["backlog_max"]
        # The blast is a handful of steps of thousands of lines; only
        # the interval timer can see the host's speed inside them.
        state["calibrate"] = False
        if profiler is None:
            ticker.start()
        serve_until("blast-end")
        if profiler is None:
            ticker.stop()
        else:
            profiler.disable()
        served_ended = time.monotonic_ns()
        server_cpu = _server_thread_cpu() - server_cpu_started
        generator_report, _ = generator.communicate(timeout=30)
        backlog_at_exit = service_pending(service)
    finally:
        if generator.poll() is None:
            generator.kill()
            generator.wait()
    gen = json.loads(generator_report.strip().splitlines()[-1])
    out: Dict[str, Any] = {
        # ``(start, cost)`` of the kernel runs inside the blast.
        "blast_ticks": ticker.ticks,
        "markers": markers,
        "steps": steps,
        "cals": cals,
        "paced_started": paced_started,
        "paced_ended": paced_ended,
        "served_ended": served_ended,
        "paced_cpu": paced_cpu,
        "server_cpu": server_cpu,
        "backlog_max": state["backlog_max"],
        "paced_backlog_max": paced_backlog_max,
        "backlog_at_exit": backlog_at_exit,
        "generator": gen,
        "accepted": door.accepted_total,
        "shed": door.shed_total,
        "rejected": door.rejected_total,
        "offered_lines": gen["sent_lines"],
        "open_events_max": 0,
    }
    if profiler is not None:
        out["ledger"] = _ledger([profiler, server_profiler], spec)
        out["replay_wall"] = (served_ended - paced_started) / 1e9
    return out


def _server_thread_cpu() -> float:
    """CPU seconds of the ingest server's thread (its own clock)."""
    if not hasattr(time, "pthread_getcpuclockid"):
        return 0.0
    for worker in threading.enumerate():
        if worker.name == "loglens-ingest" and worker.ident is not None:
            return time.clock_gettime(
                time.pthread_getcpuclockid(worker.ident)
            )
    return 0.0


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = prepare(spec) if spec["mode"] == "prepare" else run_round(spec)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
