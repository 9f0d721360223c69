"""The benchmark case catalog: the paper-critical hot paths, named.

Primary cases (each emits one ``BENCH_<case>.json``):

``tokenizer``
    Preprocessing throughput: a *fresh* tokenizer (cold memo, detector
    construction included) over the corpus — sensitive to token-object
    cost and timestamp-format compilation caching.
``parser_indexed``
    :class:`~repro.parsing.parser.FastLogParser` steady-state
    records/sec with a warm signature index (the LogLens engine of
    Table IV).
``parser_logstash``
    The :class:`~repro.baselines.logstash.NaiveGrokParser` O(m·n)
    baseline over a subsample of the same corpus.
``index_build``
    Cold :class:`~repro.parsing.index.PatternIndex` candidate-group
    construction: one lookup per distinct log shape.
``index_lookup``
    Warm-index lookup latency over the full corpus.
``service_throughput`` / ``service_metrics_off``
    End-to-end :class:`~repro.service.loglens_service.LogLensService`
    micro-batch replay of D1 with metrics enabled / with the no-op
    :class:`~repro.obs.NullRegistry`.
``storage_query``
    Warm :class:`~repro.service.storage.AnomalyStorage` query mix —
    ``by_source`` / ``by_type`` (hash-index shaped) and ``in_window``
    (time-index shaped) over a large document set.
``storage_insert``
    Bulk ``insert_many`` into a fresh :class:`DocumentStore` with the
    secondary indexes live (insert-path index maintenance included).
``storage_query_sqlite`` / ``storage_insert_sqlite``
    The same two workloads against the persistent
    :class:`~repro.service.sqlite_store.SQLiteDocumentStore` (WAL mode,
    batched ``executemany`` ingest, lazily indexed SQL queries) — the
    cost of durability relative to the in-memory store.
``storage_sql_many``
    Load-once/query-many (logservatory's design, see SNIPPETS.md): the
    corpus is ingested into SQLite once at setup, then the timed body
    answers a mixed ad-hoc SQL workload through the read-only
    escape-hatch connection (the ``loglens query`` surface).
``detector_sweep``
    Steady-state heartbeat sweeps over a large population of open
    events, none of which expire — the per-tick cost Section V-B's
    heartbeat mechanism pays at scale.
``alert_eval``
    :class:`~repro.alerts.AlertEvaluator` ticks: a rule population
    (windowed anomaly-rate rules across sources/severities, mixed
    conditions, cooldowns, pending counts) evaluated over a seeded
    anomaly archive as log-time advances — the per-heartbeat cost the
    alerting control plane adds to ``LogLensService.step``.
``bus_roundtrip``
    Keyed batched produce plus consumer poll of the full topic through
    :class:`~repro.service.bus.MessageBus`.
``ingest_network``
    Concurrent :class:`~repro.ingest.client.IngestClient` senders
    through a real loopback :class:`~repro.ingest.server.IngestServer`
    into a bus topic — the network front door's admission hot path
    (framing, batching, ack round-trips) under client concurrency.
``engine_serial`` / ``engine_shm``
    The same full-size parser workload pushed through a
    :class:`~repro.streaming.engine.StreamingContext` micro-batch on the
    serial backend versus the process backend (columnar frames through
    shared-memory arenas): identical records, identical operator graph,
    only the backend differs.  Worker processes are started and warmed
    during setup, so the timed samples measure steady-state batches,
    not spawn cost.  The ``engine_batch_records`` param (0 = one batch)
    splits the workload into fixed-size micro-batches for batch-size
    sweeps: ``loglens bench --case engine_shm --set
    engine_batch_records=256``.

Derived cases (computed from primary samples, no extra timing):

``parser_speedup``
    Per-repeat ratio of per-record Logstash time to per-record indexed
    time — the Table IV headline number; higher is better.
``service_metrics_overhead``
    Per-repeat ratio of metrics-on to metrics-off service time; the
    observability tax, lower is better.
``engine_shm_speedup``
    Per-repeat ratio of serial-backend to process-backend engine time;
    the multicore payoff, higher is better.  On single-core runners the
    honest value is *below* 1 (IPC overhead with no parallelism to buy
    back); see ``docs/PARALLELISM.md``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..alerts import AlertEvaluator, AlertRule, CollectingSink
from ..baselines.logstash import NaiveGrokParser
from ..ingest.server import IngestServer
from ..obs import MetricsRegistry, NullRegistry
from ..parsing.index import PatternIndex
from ..parsing.parser import FastLogParser
from ..parsing.tokenizer import Tokenizer
from ..sequence.detector import LogSequenceDetector
from ..service.bus import MessageBus
from ..service.config import ServiceConfig
from ..service.loglens_service import LogLensService
from ..service.sqlite_store import (
    SQLiteDatabase,
    SQLiteDocumentStore,
    run_readonly_sql,
)
from ..service.storage import AnomalyStorage, DocumentStore
from ..streaming import StreamRecord, StreamingContext
from .harness import BenchCase, CaseResult, run_case, summarize
from .workloads import (
    bus_workload,
    detector_workload,
    parser_workload,
    service_workload,
    storage_workload,
)

__all__ = [
    "QUICK_PARAMS",
    "FULL_PARAMS",
    "build_cases",
    "derive_ratio",
    "run_bench",
    "case_names",
    "grouped_case_names",
]

#: Workload sizes for the CI gate (seconds, not minutes).
QUICK_PARAMS: Dict[str, Any] = {
    "templates": 60,
    "logs": 1200,
    "logstash_logs": 300,
    "events_per_workflow": 40,
    # Data-plane quick sizes are chosen so each case's median lands in
    # the tens-of-milliseconds range: the indexed paths are fast enough
    # that smaller workloads measure scheduler noise, not the code.
    "storage_docs": 12000,
    "storage_queries": 400,
    # The SQLite query mix decodes every matched document from JSON, so
    # it gets a smaller window count to stay CI-sized.
    "storage_sqlite_queries": 40,
    "detector_open_events": 5000,
    "detector_heartbeats": 500,
    "bus_records": 16000,
    "alert_rules": 24,
    "alert_anomalies": 6000,
    "alert_ticks": 150,
    "ingest_clients": 8,
    "ingest_lines_per_client": 400,
    # 0 = the whole workload as one micro-batch; set a record count to
    # sweep batch sizes (e.g. --set engine_batch_records=256).
    "engine_batch_records": 0,
    "repeats": 3,
    "warmup": 1,
}

#: Workload sizes for local before/after measurement.
FULL_PARAMS: Dict[str, Any] = {
    "templates": 200,
    "logs": 6000,
    "logstash_logs": 800,
    "events_per_workflow": 160,
    "storage_docs": 50000,
    "storage_queries": 300,
    "storage_sqlite_queries": 60,
    "detector_open_events": 10000,
    "detector_heartbeats": 100,
    "bus_records": 20000,
    "alert_rules": 64,
    "alert_anomalies": 30000,
    "alert_ticks": 400,
    "ingest_clients": 32,
    "ingest_lines_per_client": 1000,
    "engine_batch_records": 0,
    "repeats": 5,
    "warmup": 2,
}


def _parser_cases(params: Dict[str, Any]) -> List[BenchCase]:
    templates = params["templates"]
    logs = params["logs"]
    logstash_logs = params["logstash_logs"]
    workload_params = {"templates": templates, "logs": logs}

    # One shared workload per suite run: discovery is expensive and the
    # corpus is deterministic, so every parser-path case reuses it.
    shared: Dict[str, Any] = {}

    def load():
        if "workload" not in shared:
            shared["workload"] = parser_workload(templates, logs)
        return shared["workload"]

    def setup_tokenizer():
        return load().lines

    def run_tokenizer(lines):
        tokenizer = Tokenizer(metrics=MetricsRegistry())
        return tokenizer.tokenize_many(lines)

    def setup_indexed():
        w = load()
        parser = FastLogParser(
            w.model, tokenizer=Tokenizer(), metrics=MetricsRegistry()
        )
        parser.parse_all(w.lines[: min(64, len(w.lines))])  # warm index
        return (parser, w.lines)

    def run_indexed(state):
        parser, lines = state
        return parser.parse_all(lines)

    def check_indexed(state, result):
        anomalies = sum(1 for r in result if not hasattr(r, "fields"))
        if anomalies:
            raise AssertionError(
                "parser_indexed: %d unparsed logs on a train==test corpus"
                % anomalies
            )

    def setup_logstash():
        w = load()
        return (NaiveGrokParser(w.model), w.lines[:logstash_logs])

    def run_logstash(state):
        parser, lines = state
        return parser.parse_all(lines)

    def setup_index_build():
        w = load()
        return (w.model, w.unique_shapes)

    def run_index_build(state):
        model, shapes = state
        index = PatternIndex(
            model.patterns, model.registry, metrics=MetricsRegistry()
        )
        for tlog in shapes:
            index.lookup(tlog)
        return index

    def setup_index_lookup():
        w = load()
        index = PatternIndex(
            w.model.patterns, w.model.registry, metrics=MetricsRegistry()
        )
        for tlog in w.unique_shapes:  # pre-build every group
            index.lookup(tlog)
        return (index, w.tokenized)

    def run_index_lookup(state):
        index, tokenized = state
        misses = 0
        for tlog in tokenized:
            if index.lookup(tlog) is None:
                misses += 1
        return misses

    def check_index_lookup(state, misses):
        if misses:
            raise AssertionError(
                "index_lookup: %d lookup misses on a clean corpus" % misses
            )

    return [
        BenchCase(
            name="tokenizer",
            params=workload_params,
            setup=setup_tokenizer,
            run=run_tokenizer,
            records=lambda lines: len(lines),
            group="parser",
        ),
        BenchCase(
            name="parser_indexed",
            params=workload_params,
            setup=setup_indexed,
            run=run_indexed,
            records=lambda s: len(s[1]),
            check=check_indexed,
            group="parser",
        ),
        BenchCase(
            name="parser_logstash",
            params={"templates": templates, "logs": logstash_logs},
            setup=setup_logstash,
            run=run_logstash,
            records=lambda s: len(s[1]),
            group="parser",
        ),
        BenchCase(
            name="index_build",
            params=workload_params,
            setup=setup_index_build,
            run=run_index_build,
            records=lambda s: len(s[1]),
            group="parser",
        ),
        BenchCase(
            name="index_lookup",
            params=workload_params,
            setup=setup_index_lookup,
            run=run_index_lookup,
            records=lambda s: len(s[1]),
            check=check_index_lookup,
            group="parser",
        ),
    ]


def _service_cases(
    params: Dict[str, Any], execution: str = "serial"
) -> List[BenchCase]:
    events = params["events_per_workflow"]
    case_params = {"events_per_workflow": events, "execution": execution}
    shared: Dict[str, Any] = {}

    def load():
        if "workload" not in shared:
            shared["workload"] = service_workload(events)
        return shared["workload"]

    def replay(workload, metrics):
        service = LogLensService(
            config=ServiceConfig(
                num_partitions=4, metrics=metrics, execution=execution
            )
        )
        service.model_manager.register_built(workload.models)
        service.model_manager.publish_all()
        service.flush_model_updates()
        service.ingest(workload.lines, source="bench")
        service.run_until_drained()
        service.final_flush()
        service.close()
        return service

    def run_metrics_on(workload):
        return replay(workload, MetricsRegistry())

    def run_metrics_off(workload):
        return replay(workload, NullRegistry())

    def check_drained(workload, service):
        if service is None:
            return
        archived = service.log_storage.count()
        if archived != len(workload.lines):
            raise AssertionError(
                "service replay archived %d of %d lines"
                % (archived, len(workload.lines))
            )

    return [
        BenchCase(
            name="service_throughput",
            params=case_params,
            setup=load,
            run=run_metrics_on,
            records=lambda w: len(w.lines),
            check=check_drained,
            group="service",
        ),
        BenchCase(
            name="service_metrics_off",
            params=case_params,
            setup=load,
            run=run_metrics_off,
            records=lambda w: len(w.lines),
            check=check_drained,
            group="service",
        ),
    ]


class _EngineParseOp:
    """Picklable flat-map operator for the engine backend cases.

    Mirrors the service's parse stage: the pattern model arrives via
    broadcast, one :class:`FastLogParser` lives resident per partition
    (cached on the worker context), and every raw line becomes a parsed
    record.  Lives at module level so ``spawn`` worker processes can
    unpickle it by import.
    """

    def __init__(self, model_bv: Any) -> None:
        self.model_bv = model_bv

    def __call__(self, record: StreamRecord, worker: Any) -> Any:
        model = self.model_bv.get_value(worker.block_manager)
        parser = getattr(worker, "_bench_parser", None)
        if parser is None or parser.model is not model:
            parser = FastLogParser(
                model, tokenizer=Tokenizer(), metrics=NullRegistry()
            )
            worker._bench_parser = parser
        return [StreamRecord(value=parser.parse(record.value))]


def _engine_cases(params: Dict[str, Any]) -> List[BenchCase]:
    """Serial vs process backend over one parser workload."""
    templates = params["templates"]
    logs = params["logs"]
    batch_records = params.get("engine_batch_records", 0)
    partitions = 4
    shared: Dict[str, Any] = {}

    def case_params(transport):
        merged = {
            "templates": templates,
            "logs": logs,
            "partitions": partitions,
            "transport": transport,
        }
        if batch_records:
            merged["engine_batch_records"] = batch_records
        return merged

    def load():
        if "workload" not in shared:
            w = parser_workload(templates, logs)
            # Per-record keys spread the bucket evenly across all
            # partitions (round-robin by index), so every worker gets
            # logs/partitions records per batch.
            shared["workload"] = (
                w,
                [
                    StreamRecord(value=line, key="k%d" % i)
                    for i, line in enumerate(w.lines)
                ],
            )
        return shared["workload"]

    def make_setup(execution):
        def setup():
            w, recs = load()
            ctx = StreamingContext(
                num_partitions=partitions,
                metrics=NullRegistry(),
                execution=execution,
            )
            model_bv = ctx.broadcast(w.model)
            collector = (
                ctx.source().flat_map(_EngineParseOp(model_bv)).collector()
            )
            # One small batch here starts the worker processes (spawn +
            # interpreter boot) and warms each partition's resident
            # parser, so even a warmup=0 invocation never times either.
            ctx.run_batch(recs[: min(64, len(recs))])
            collector.clear()
            return (ctx, collector, recs)

        return setup

    def run_engine(state):
        ctx, collector, recs = state
        collector.clear()
        if batch_records:
            for start in range(0, len(recs), batch_records):
                ctx.run_batch(recs[start:start + batch_records])
        else:
            ctx.run_batch(recs)
        return len(collector)

    def make_check(name):
        def check(state, parsed):
            ctx, collector, recs = state
            unparsed = sum(
                1
                for r in collector.snapshot()
                if not hasattr(r.value, "fields")
            )
            ctx.shutdown()
            if parsed != len(recs) or unparsed:
                raise AssertionError(
                    "%s: %d of %d records emitted, %d unparsed on a "
                    "train==test corpus" % (name, parsed, len(recs), unparsed)
                )

        return check

    return [
        BenchCase(
            name="engine_serial",
            params=case_params("none"),
            setup=make_setup("serial"),
            run=run_engine,
            records=lambda s: len(s[2]),
            check=make_check("engine_serial"),
            group="engine",
        ),
        BenchCase(
            name="engine_shm",
            params=case_params("shm"),
            setup=make_setup("processes"),
            run=run_engine,
            records=lambda s: len(s[2]),
            check=make_check("engine_shm"),
            group="engine",
        ),
    ]


def _ingest_cases(params: Dict[str, Any]) -> List[BenchCase]:
    """The network front door: concurrent loopback senders."""
    import threading

    from ..ingest import IngestClient, IngestLimits, IngestServerThread

    clients = params["ingest_clients"]
    lines_per_client = params["ingest_lines_per_client"]
    total = clients * lines_per_client
    case_params = {
        "ingest_clients": clients,
        "ingest_lines_per_client": lines_per_client,
    }

    def load():
        return [
            [
                "2024-01-01 00:00:00 bench client-%d line-%d" % (c, i)
                for i in range(lines_per_client)
            ]
            for c in range(clients)
        ]

    def run(payloads):
        bus = MessageBus(metrics=NullRegistry())
        bus.ensure_topic("bench.ingest", partitions=4)

        def sink(lines: Sequence[str], source: str) -> int:
            records = [{"raw": line, "source": source} for line in lines]
            bus.produce_many("bench.ingest", records, key=source)
            return len(records)

        server = IngestServerThread(
            IngestServer(
                sink,
                limits=IngestLimits(batch_lines=64),
                metrics=NullRegistry(),
            )
        ).start()

        def send(index: int) -> None:
            with IngestClient(
                "127.0.0.1",
                server.tcp_port,
                "bench-%d" % index,
                batch_lines=64,
            ) as client:
                client.send(payloads[index])

        threads = [
            threading.Thread(target=send, args=(i,), daemon=True)
            for i in range(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.stop()
        return server.server, bus

    def check(payloads, result):
        if result is None:
            return
        server, bus = result
        produced = sum(bus.end_offsets("bench.ingest"))
        if server.accepted_total != total or produced != total:
            raise AssertionError(
                "ingest_network admitted %d / produced %d of %d lines"
                % (server.accepted_total, produced, total)
            )

    return [
        BenchCase(
            name="ingest_network",
            params=case_params,
            setup=load,
            run=run,
            records=total,
            check=check,
            group="ingest",
        ),
    ]


def _alert_cases(params: Dict[str, Any]) -> List[BenchCase]:
    """The alerting control plane's per-heartbeat evaluation cost."""
    n_rules = params["alert_rules"]
    n_docs = params["alert_anomalies"]
    n_ticks = params["alert_ticks"]
    sources = ["src-%d" % i for i in range(8)]
    types = ["missing_end", "unparsed_log", "slow_transition"]
    doc_gap_millis = 50
    span = n_docs * doc_gap_millis

    def setup():
        storage = AnomalyStorage(metrics=NullRegistry())
        for i in range(n_docs):
            storage.store({
                "type": types[i % len(types)],
                "severity": (i * 7) % 5,
                "source": sources[i % len(sources)],
                "timestamp_millis": i * doc_gap_millis,
                "reason": "bench",
            })
        rules = []
        for r in range(n_rules):
            rules.append(AlertRule(
                name="rule-%03d" % r,
                signal="anomaly_rate",
                condition=(">", ">=", "<", "stale")[r % 4],
                threshold=float(5 + (r * 13) % 40),
                window_millis=10_000 + (r % 5) * 10_000,
                source=sources[r % len(sources)] if r % 2 else None,
                anomaly_type=types[r % len(types)] if r % 3 == 0 else None,
                min_severity=r % 5 if r % 4 == 0 else None,
                pending_ticks=1 + r % 3,
                cooldown_millis=(r % 4) * 5_000,
            ))
        return (storage, tuple(rules))

    def run(state):
        storage, rules = state
        # A fresh evaluator per repeat: every sample pays the same
        # OK-onwards lifecycle walk, not a saturated steady state.
        evaluator = AlertEvaluator(
            rules,
            metrics=NullRegistry(),
            anomaly_storage=storage,
            sinks=(CollectingSink(),),
        )
        events = 0
        for tick in range(n_ticks):
            now = 5_000 + (tick * (span + 20_000)) // n_ticks
            events += len(evaluator.evaluate(now))
        return (evaluator, events)

    def check(state, result):
        if result is None:
            return
        evaluator, events = result
        if events == 0 or evaluator.fired_total == 0:
            raise AssertionError(
                "alert_eval produced no transitions: the workload is "
                "not exercising the lifecycle"
            )
        if len(evaluator.sinks[0].events) != events:
            raise AssertionError(
                "sink saw %d events but evaluate() returned %d"
                % (len(evaluator.sinks[0].events), events)
            )

    return [
        BenchCase(
            name="alert_eval",
            params={
                "alert_rules": n_rules,
                "alert_anomalies": n_docs,
                "alert_ticks": n_ticks,
            },
            setup=setup,
            run=run,
            records=n_rules * n_ticks,
            check=check,
            group="alerts",
        ),
    ]


def _data_plane_cases(params: Dict[str, Any]) -> List[BenchCase]:
    """Storage, detector, and bus cases — the stateful data plane."""
    storage_docs = params["storage_docs"]
    storage_queries = params["storage_queries"]
    sqlite_queries = params["storage_sqlite_queries"]
    open_events = params["detector_open_events"]
    heartbeats = params["detector_heartbeats"]
    bus_records = params["bus_records"]

    def query_mix(storage, w):
        hits = 0
        for i, (lo, hi) in enumerate(w.windows):
            hits += len(storage.by_source(w.sources[i % len(w.sources)]))
            hits += len(storage.in_window(lo, hi))
            if i % 4 == 0:
                hits += len(storage.by_type(w.types[i % len(w.types)]))
        return hits

    def setup_storage_query():
        w = storage_workload(storage_docs, storage_queries)
        storage = AnomalyStorage()
        for doc in w.docs:
            storage.store(doc)
        expected = query_mix(storage, w)  # also warms lazy indexes
        return (storage, w, expected)

    def run_storage_query(state):
        storage, w, _ = state
        return query_mix(storage, w)

    def check_storage_query(state, hits):
        _, _, expected = state
        if hits != expected:
            raise AssertionError(
                "storage_query: %d hits, expected %d" % (hits, expected)
            )

    def setup_storage_insert():
        return storage_workload(storage_docs, 1).docs

    def run_storage_insert(docs):
        store = DocumentStore()
        # Touch the queried fields first so the timed insert pays the
        # full index-maintenance cost a live store pays.
        store.query(match={"source": "src-0"})
        store.query(range_=("timestamp_millis", 0, 0))
        store.insert_many(docs)
        return store

    def check_storage_insert(docs, store):
        if store.count() != len(docs):
            raise AssertionError(
                "storage_insert: stored %d of %d docs"
                % (store.count(), len(docs))
            )

    # SQLite database files for the benchmarks live on tmpfs when the
    # host has one: the cases measure the engine's compute path, and a
    # disk-backed tempdir folds device-level fsync/page-cache noise into
    # the samples (far past the CI gate's tolerance).
    bench_tmp = "/dev/shm" if os.path.isdir("/dev/shm") else None

    def _sqlite_tmpdir():
        return tempfile.TemporaryDirectory(
            prefix="bench-sqlite-", dir=bench_tmp
        )

    def _fresh_sqlite_store(tmp, name):
        db = SQLiteDatabase(Path(tmp.name) / ("%s.db" % name))
        return db, SQLiteDocumentStore(db, name, metrics=MetricsRegistry())

    def setup_storage_query_sqlite():
        tmp = _sqlite_tmpdir()
        w = storage_workload(storage_docs, sqlite_queries)
        db, backend = _fresh_sqlite_store(tmp, "anomalies")
        backend.insert_many(w.docs)
        storage = AnomalyStorage(backend=backend)
        expected = query_mix(storage, w)  # also creates the SQL indexes
        return (storage, w, expected, db, tmp)

    def run_storage_query_sqlite(state):
        storage, w = state[0], state[1]
        return query_mix(storage, w)

    def check_storage_query_sqlite(state, hits):
        expected, db = state[2], state[3]
        db.close()
        if hits != expected:
            raise AssertionError(
                "storage_query_sqlite: %d hits, expected %d"
                % (hits, expected)
            )

    def setup_storage_insert_sqlite():
        tmp = _sqlite_tmpdir()
        return (storage_workload(storage_docs, 1).docs, tmp)

    def run_storage_insert_sqlite(state):
        docs, tmp = state
        base = Path(tmp.name) / "insert.db"
        for suffix in ("", "-wal", "-shm"):
            path = Path(str(base) + suffix)
            if path.exists():
                path.unlink()
        db = SQLiteDatabase(base)
        store = SQLiteDocumentStore(
            db, "anomalies", metrics=MetricsRegistry()
        )
        # Touch the queried fields first so the timed insert pays the
        # SQL index maintenance a live store pays (parity with
        # storage_insert's warmed in-memory indexes).
        store.query(match={"source": "src-0"})
        store.query(range_=("timestamp_millis", 0, 0))
        ids = store.insert_many(docs)
        stored = store.count()
        db.close()  # WAL flush is part of the durability cost
        return (len(ids), stored)

    def check_storage_insert_sqlite(state, result):
        docs = state[0]
        inserted, stored = result
        if inserted != len(docs) or stored != len(docs):
            raise AssertionError(
                "storage_insert_sqlite: stored %d of %d docs"
                % (stored, len(docs))
            )

    def setup_storage_sql_many():
        tmp = _sqlite_tmpdir()
        w = storage_workload(storage_docs, storage_queries)
        db, backend = _fresh_sqlite_store(tmp, "anomalies")
        backend.insert_many(w.docs)
        # Build the SQL indexes the ad-hoc queries will lean on, then
        # close the writer: from here on the database is read-only.
        backend.query(match={"source": w.sources[0]})
        backend.query(range_=("timestamp_millis", 0, 0))
        db.close()
        path = str(Path(tmp.name) / "anomalies.db")

        def sql_mix():
            hits = 0
            for i, (lo, hi) in enumerate(w.windows):
                _, rows = run_readonly_sql(
                    path,
                    "SELECT COUNT(*) FROM anomalies "
                    "WHERE timestamp_millis BETWEEN ? AND ?",
                    (lo, hi),
                )
                hits += rows[0][0]
                if i % 4 == 0:
                    _, rows = run_readonly_sql(
                        path,
                        "SELECT source, COUNT(*) FROM anomalies "
                        "WHERE timestamp_millis BETWEEN ? AND ? "
                        "GROUP BY source",
                        (lo, hi),
                    )
                    hits += len(rows)
            return hits

        expected = sql_mix()
        return (sql_mix, w, expected, tmp)

    def run_storage_sql_many(state):
        return state[0]()

    def check_storage_sql_many(state, hits):
        expected = state[2]
        if hits != expected:
            raise AssertionError(
                "storage_sql_many: %d hits, expected %d"
                % (hits, expected)
            )

    def setup_detector_sweep():
        w = detector_workload(open_events, heartbeats)
        detector = LogSequenceDetector(w.model)
        detector.process_many(w.open_logs)
        return (detector, w)

    def run_detector_sweep(state):
        detector, w = state
        expired = 0
        for now in w.heartbeats:
            expired += len(detector.process_heartbeat(now))
        return expired

    def check_detector_sweep(state, expired):
        detector, w = state
        if expired:
            raise AssertionError(
                "detector_sweep: %d events expired inside the window"
                % expired
            )
        if detector.open_event_count != len(w.open_logs):
            raise AssertionError(
                "detector_sweep: %d open events, expected %d"
                % (detector.open_event_count, len(w.open_logs))
            )

    def setup_bus():
        return bus_workload(bus_records)

    def run_bus(w):
        bus = MessageBus(metrics=MetricsRegistry())
        bus.ensure_topic("bench.bus", partitions=4)
        for key, values in w.batches:
            bus.produce_many("bench.bus", values, key=key)
        consumer = bus.consumer("bench.bus", group="bench")
        consumed = 0
        while True:
            got = consumer.poll(max_records=2048)
            if not got:
                break
            consumed += len(got)
        return consumed

    def check_bus(w, consumed):
        if consumed != w.total:
            raise AssertionError(
                "bus_roundtrip: consumed %d of %d records"
                % (consumed, w.total)
            )

    return [
        BenchCase(
            name="storage_query",
            params={"docs": storage_docs, "queries": storage_queries},
            setup=setup_storage_query,
            run=run_storage_query,
            records=lambda s: len(s[1].windows),
            check=check_storage_query,
            group="storage",
        ),
        BenchCase(
            name="storage_insert",
            params={"docs": storage_docs},
            setup=setup_storage_insert,
            run=run_storage_insert,
            records=lambda docs: len(docs),
            check=check_storage_insert,
            group="storage",
        ),
        BenchCase(
            name="storage_query_sqlite",
            params={"docs": storage_docs, "queries": sqlite_queries},
            setup=setup_storage_query_sqlite,
            run=run_storage_query_sqlite,
            records=lambda s: len(s[1].windows),
            check=check_storage_query_sqlite,
            group="storage",
        ),
        BenchCase(
            name="storage_insert_sqlite",
            params={"docs": storage_docs},
            setup=setup_storage_insert_sqlite,
            run=run_storage_insert_sqlite,
            records=lambda s: len(s[0]),
            check=check_storage_insert_sqlite,
            group="storage",
        ),
        BenchCase(
            name="storage_sql_many",
            params={"docs": storage_docs, "queries": storage_queries},
            setup=setup_storage_sql_many,
            run=run_storage_sql_many,
            records=lambda s: len(s[1].windows),
            check=check_storage_sql_many,
            group="storage",
        ),
        BenchCase(
            name="detector_sweep",
            params={
                "open_events": open_events,
                "heartbeats": heartbeats,
            },
            setup=setup_detector_sweep,
            run=run_detector_sweep,
            records=lambda s: len(s[1].heartbeats),
            check=check_detector_sweep,
            group="detector",
        ),
        BenchCase(
            name="bus_roundtrip",
            params={"records": bus_records},
            setup=setup_bus,
            run=run_bus,
            records=lambda w: w.total,
            check=check_bus,
            group="bus",
        ),
    ]


def build_cases(
    quick: bool = False,
    execution: str = "serial",
    overrides: Optional[Dict[str, Any]] = None,
) -> List[BenchCase]:
    """The primary case catalog at quick (CI) or full (local) size.

    ``execution`` selects the streaming backend the *service* cases run
    on; the ``engine_serial`` / ``engine_shm`` pair always pins its own
    backends (that contrast is the case).
    ``overrides`` replaces individual workload params (the CLI's
    ``--set key=value``); unknown keys are rejected so a typo cannot
    silently benchmark the default workload.
    """
    params = dict(QUICK_PARAMS if quick else FULL_PARAMS)
    if overrides:
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ValueError(
                "unknown bench param(s) %s; known: %s"
                % (", ".join(unknown), ", ".join(sorted(params)))
            )
        params.update(overrides)
    return (
        _parser_cases(params)
        + _service_cases(params, execution=execution)
        + _engine_cases(params)
        + _ingest_cases(params)
        + _data_plane_cases(params)
        + _alert_cases(params)
    )


def derive_ratio(
    name: str,
    numerator: CaseResult,
    denominator: CaseResult,
    better: str,
    per_record: bool = True,
) -> CaseResult:
    """A ratio case computed sample-by-sample from two primary results.

    With ``per_record`` each sample is first normalised by its case's
    record count, so differently-sized workloads (the Logstash subsample)
    compare fairly.
    """
    pairs = min(len(numerator.samples), len(denominator.samples))
    num_scale = numerator.records if per_record and numerator.records else 1
    den_scale = (
        denominator.records if per_record and denominator.records else 1
    )
    samples = [
        (numerator.samples[i] / num_scale)
        / (denominator.samples[i] / den_scale)
        for i in range(pairs)
    ]
    return CaseResult(
        case=name,
        params={
            "numerator": numerator.case,
            "denominator": denominator.case,
            "per_record": per_record,
        },
        repeats=pairs,
        warmup=0,
        unit="ratio",
        better=better,
        records=0,
        samples=samples,
        stats=summarize(samples),
    )


def _derived(results: List[CaseResult]) -> List[CaseResult]:
    by_name = {r.case: r for r in results}
    out: List[CaseResult] = []
    if "parser_logstash" in by_name and "parser_indexed" in by_name:
        out.append(
            derive_ratio(
                "parser_speedup",
                by_name["parser_logstash"],
                by_name["parser_indexed"],
                better="higher",
            )
        )
    if "service_throughput" in by_name and "service_metrics_off" in by_name:
        out.append(
            derive_ratio(
                "service_metrics_overhead",
                by_name["service_throughput"],
                by_name["service_metrics_off"],
                better="lower",
                per_record=False,
            )
        )
    if "engine_serial" in by_name and "engine_shm" in by_name:
        out.append(
            derive_ratio(
                "engine_shm_speedup",
                by_name["engine_serial"],
                by_name["engine_shm"],
                better="higher",
                per_record=False,
            )
        )
    return out


#: Derived (ratio) cases and the subsystem each one belongs to.
_DERIVED_GROUPS: Dict[str, str] = {
    "parser_speedup": "parser",
    "service_metrics_overhead": "service",
    "engine_shm_speedup": "engine",
}


def case_names(quick: bool = False) -> List[str]:
    """Every artifact name a full suite run produces, in order."""
    names = [c.name for c in build_cases(quick)]
    return names + list(_DERIVED_GROUPS)


def grouped_case_names(quick: bool = False) -> Dict[str, List[str]]:
    """The catalog keyed by subsystem (``loglens bench --list``).

    Groups appear in first-case order; derived ratio cases are listed
    under the subsystem of their numerator.
    """
    groups: Dict[str, List[str]] = {}
    for case in build_cases(quick):
        groups.setdefault(case.group, []).append(case.name)
    for name, group in _DERIVED_GROUPS.items():
        groups.setdefault(group, []).append(name)
    return groups


def run_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    execution: str = "serial",
    overrides: Optional[Dict[str, Any]] = None,
) -> List[CaseResult]:
    """Run the suite; returns primary results plus derived ratio cases.

    ``only`` filters primary cases by name (derived cases appear when
    both of their inputs ran).  ``execution`` selects the service cases'
    streaming backend (the engine trio pins its own).  ``overrides``
    replaces workload params, see :func:`build_cases`.
    """
    params = dict(QUICK_PARAMS if quick else FULL_PARAMS)
    if overrides:
        params.update(overrides)
    repeats = repeats if repeats is not None else params["repeats"]
    warmup = warmup if warmup is not None else params["warmup"]
    results: List[CaseResult] = []
    for case in build_cases(quick, execution=execution,
                            overrides=overrides):
        if only and case.name not in only:
            continue
        if progress is not None:
            progress(case.name)
        results.append(run_case(case, repeats=repeats, warmup=warmup))
    return results + _derived(results)
