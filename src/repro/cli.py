"""Command-line interface for the LogLens reproduction.

Thirteen subcommands cover the library's workflow from a shell::

    loglens train   normal.log -o model.json      # unsupervised learning
    loglens detect  stream.log -m model.json      # report anomalies
    loglens inspect model.json                    # show patterns/automata
    loglens parse   stream.log -m model.json      # structured parse output
    loglens watch   app.log    -m model.json      # follow a live log file
    loglens serve   -m model.json                 # network ingestion daemon
    loglens quality sample.log -m model.json      # drift check (coverage)
    loglens metrics stream.log -m model.json      # observability snapshot
    loglens chaos   stream.log -m model.json      # fault-injection proof
    loglens bench   --quick -o bench-out          # perf benchmark suite
    loglens query   "SELECT ..." --storage sqlite:loglens.db  # ad-hoc SQL
    loglens config  check loglens.toml            # validate a config file
    loglens alerts  list -c loglens.toml          # alerting operations

``train`` reads raw lines (one log per line), discovers patterns, learns
automata, and writes one JSON model file.  ``detect`` replays a stream
through both detectors and prints one JSON document per anomaly.
``watch`` tails a growing file through the full real-time service,
printing anomalies as they are detected.  ``serve`` opens the network
front door (docs/INGESTION.md): a line-delimited TCP listener plus an
HTTP POST endpoint feeding the same service, with backpressure driven
by the real bus backlog.  ``chaos`` replays a stream while
deterministically injecting operator failures, poison records, and
flaky broadcast fetches, then proves the batch completed with zero lost
records (retried or quarantined to dead-letter topics) — all on a
virtual clock, with no wall-clock sleeping; ``chaos --socket`` drives
the same proof through the TCP front door while dropping connections
and failing batch admissions.

The service-backed commands (``watch`` / ``serve`` / ``metrics`` /
``chaos``) take ``--storage sqlite:PATH`` to persist archived logs,
models, and anomalies into a WAL-mode SQLite database that survives
restarts; ``query`` then runs arbitrary **read-only** SQL against such
a database (tables: ``logs``, ``anomalies``, ``models`` — see
docs/STORAGE.md).

The service-backed commands plus ``bench`` also take ``--config FILE``:
a declarative TOML (or JSON) service config covering ``[service]``,
``[storage]``, ``[execution]``, ``[ingest]``, and alerting
(``[[alerts.rules]]`` / ``[[alerts.sinks]]`` — docs/ALERTING.md).
Explicit command-line flags override file values.  ``config
check|show`` validates and renders such a file; ``alerts
list|history|test-fire`` inspects rules, reads persisted alert
history, and proves sink wiring without a live service.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .core.config import LogLensConfig
from .core.pipeline import LogLens
from .errors import ConfigFileError, StorageLayoutError
from .parsing.parser import ParsedLog

__all__ = ["main", "build_parser"]


def _read_lines(path: str) -> List[str]:
    if path == "-":
        return [line.rstrip("\n") for line in sys.stdin if line.strip()]
    text = Path(path).read_text()
    return [line for line in text.splitlines() if line.strip()]


def _make_lens(args: argparse.Namespace) -> LogLens:
    return LogLens(LogLensConfig(max_dist=args.max_dist))


def _fit_or_load(args: argparse.Namespace, lens: LogLens) -> int:
    """Resolve ``-m MODEL`` / ``--train NORMAL_LOGS`` into a fitted lens.

    Returns 0 on success, or the exit code to propagate on error.
    """
    if args.model:
        lens.load(args.model)
    elif args.train:
        training = _read_lines(args.train)
        if not training:
            print("error: no training logs read", file=sys.stderr)
            return 2
        lens.fit(training)
    else:
        print(
            "error: provide -m/--model or --train NORMAL_LOGS",
            file=sys.stderr,
        )
        return 2
    return 0


# ----------------------------------------------------------------------
# Shared flag groups (argparse parent parsers)
# ----------------------------------------------------------------------
# Every service-backed subcommand takes the same --storage flag, and the
# reporting commands the same --json switch.  Defining them once keeps
# spelling, metavar, and help text identical across subcommands.

_STORAGE_HELP = (
    "storage backend: 'memory' (default) or 'sqlite:PATH' "
    "(persist logs/models/anomalies across restarts)"
)


def _storage_parent(
    *, required: bool = False, help_text: str = _STORAGE_HELP
) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--storage",
        required=required,
        default=None,
        metavar="SPEC",
        help=help_text,
    )
    return parent


def _json_parent(help_text: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--json", action="store_true", help=help_text)
    return parent


def _model_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "-m", "--model", default=None, help="model file from 'train'"
    )
    parent.add_argument(
        "--train", default=None, metavar="NORMAL_LOGS",
        help="train in-process from these normal-run logs instead of "
             "loading a model file",
    )
    return parent


def _execution_parent() -> argparse.ArgumentParser:
    from .streaming.execution import EXECUTION_BACKENDS

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--execution",
        choices=EXECUTION_BACKENDS,
        default=None,
        help="streaming execution backend: 'serial' (default) or "
             "'processes' (one worker process per partition — true "
             "multicore; see docs/PARALLELISM.md)",
    )
    return parent


def _config_parent(*, required: bool = False) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "-c", "--config",
        required=required,
        default=None,
        metavar="FILE",
        help="service config file (TOML or JSON; see docs/ALERTING.md); "
             "explicit flags override file values",
    )
    return parent


def _load_file_config(args: argparse.Namespace):
    """Parse ``--config FILE`` into a ServiceConfig, or ``None``.

    Raises :class:`~repro.errors.ConfigFileError` on a bad file;
    :func:`main` turns that into exit code 2.
    """
    path = getattr(args, "config", None)
    if not path:
        return None
    from .service.config import ServiceConfig

    return ServiceConfig.from_file(path)


def _build_service(args: argparse.Namespace, lens: LogLens, **kwargs):
    """Open the service, then fit or load its models (``-m``/``--train``).

    A config file, when given, is the service construction surface
    (storage, execution, ingest limits, alert rules and sinks); explicit
    command-line flags override individual file values.  Without a
    file, flags apply on top of the default service config.  Either
    way the service parses with the lens's tokenizer.  The config file
    and the storage are opened before any training, so a bad file or a
    refused database costs no fit.

    Returns ``(service, 0)``, or ``(None, status)`` when no model could
    be had.
    """
    if getattr(args, "storage", None) is not None:
        kwargs["storage"] = args.storage
    if getattr(args, "execution", None) is not None:
        kwargs["execution"] = args.execution
    service = lens.open_service(config=_load_file_config(args), **kwargs)
    try:
        status = _fit_or_load(args, lens)
    except BaseException:
        service.close()
        raise
    if status:
        service.close()
        return None, status
    return lens.publish_to(service), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loglens",
        description="LogLens: real-time log analysis (ICDCS 2018 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train", help="learn models from normal-run logs"
    )
    train.add_argument("logs", help="training log file ('-' for stdin)")
    train.add_argument(
        "-o", "--output", default="model.json", help="model file to write"
    )
    train.add_argument(
        "--max-dist", type=float, default=0.3,
        help="clustering distance threshold (default 0.3)",
    )

    detect = sub.add_parser("detect", help="detect anomalies in a stream")
    detect.add_argument("logs", help="streaming log file ('-' for stdin)")
    detect.add_argument(
        "-m", "--model", required=True, help="model file from 'train'"
    )
    detect.add_argument(
        "--no-heartbeat", action="store_true",
        help="disable end-of-stream expiry of open events (Figure 5 "
             "'without heartbeat' mode)",
    )
    detect.add_argument(
        "--source", default=None, help="source name stamped on anomalies"
    )
    detect.add_argument("--max-dist", type=float, default=0.3,
                        help=argparse.SUPPRESS)

    inspect = sub.add_parser(
        "inspect", help="print a model's patterns and automata"
    )
    inspect.add_argument("model", help="model file from 'train'")

    parse = sub.add_parser(
        "parse", help="print structured JSON per parsed log line"
    )
    parse.add_argument("logs", help="log file ('-' for stdin)")
    parse.add_argument("-m", "--model", required=True)
    parse.add_argument("--max-dist", type=float, default=0.3,
                       help=argparse.SUPPRESS)

    watch = sub.add_parser(
        "watch",
        parents=[_config_parent(), _storage_parent(), _execution_parent()],
        help="follow a log file through the real-time service",
    )
    watch.add_argument("logfile", help="log file to tail")
    watch.add_argument("-m", "--model", required=True)
    watch.add_argument(
        "--source", default=None,
        help="source name (default: the file's stem)",
    )
    watch.add_argument(
        "--poll-seconds", type=float, default=1.0,
        help="file poll interval (default 1.0)",
    )
    watch.add_argument(
        "--max-polls", type=int, default=None,
        help="stop after N polls (default: run until interrupted)",
    )
    watch.add_argument(
        "--from-beginning", action="store_true",
        help="process the file's existing content too",
    )
    watch.add_argument("--max-dist", type=float, default=0.3,
                       help=argparse.SUPPRESS)

    serve = sub.add_parser(
        "serve",
        parents=[
            _config_parent(),
            _model_parent(),
            _storage_parent(),
            _execution_parent(),
        ],
        help="accept logs over TCP/HTTP through the network front door",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--tcp-port", type=int, default=0, metavar="PORT",
        help="TCP line-protocol port (default 0: pick a free port)",
    )
    serve.add_argument(
        "--http-port", type=int, default=0, metavar="PORT",
        help="HTTP POST /ingest port (default 0: pick a free port; "
             "-1 disables HTTP)",
    )
    serve.add_argument(
        "--source", default="tcp",
        help="source prefix for connections that send no '#source' "
             "frame (default 'tcp')",
    )
    serve.add_argument(
        "--step-seconds", type=float, default=0.5,
        help="service step interval (default 0.5)",
    )
    serve.add_argument(
        "--max-steps", type=int, default=None,
        help="stop after N steps (default: run until interrupted)",
    )
    serve.add_argument("--max-dist", type=float, default=0.3,
                       help=argparse.SUPPRESS)

    metrics = sub.add_parser(
        "metrics",
        parents=[
            _config_parent(),
            _model_parent(),
            _storage_parent(),
            _json_parent("emit the raw JSON snapshot instead of a table"),
        ],
        help="replay logs through the full service and print the "
             "observability snapshot",
    )
    metrics.add_argument("logs", help="streaming log file ('-' for stdin)")
    metrics.add_argument(
        "--source", default="cli", help="source name for ingested lines"
    )
    metrics.add_argument("--max-dist", type=float, default=0.3,
                         help=argparse.SUPPRESS)

    chaos = sub.add_parser(
        "chaos",
        parents=[
            _config_parent(),
            _model_parent(),
            _storage_parent(),
            _json_parent("emit the raw JSON report instead of a summary"),
        ],
        help="replay a stream under deterministic fault injection and "
             "prove zero-loss fault tolerance",
    )
    chaos.add_argument("logs", help="streaming log file ('-' for stdin)")
    chaos.add_argument(
        "--source", default="chaos", help="source name for ingested lines"
    )
    chaos.add_argument(
        "--fail-first", type=int, default=2, metavar="N",
        help="inject N transient parse-operator failures, healed by "
             "retries (default 2)",
    )
    chaos.add_argument(
        "--poison", default=None, metavar="SUBSTRING",
        help="lines containing SUBSTRING fail permanently and must land "
             "in the dead-letter topic",
    )
    chaos.add_argument(
        "--flaky-broadcast", type=int, default=0, metavar="N",
        help="fail the first N broadcast fetches (healed by retries)",
    )
    chaos.add_argument(
        "--max-attempts", type=int, default=3,
        help="retry budget per operator call (default 3)",
    )
    chaos.add_argument(
        "--socket", action="store_true",
        help="drive the stream through the TCP front door (loopback) "
             "instead of calling ingest() directly",
    )
    chaos.add_argument(
        "--drop-connections", type=int, default=0, metavar="N",
        help="with --socket: drop the first N connection attempts "
             "(clients must reconnect and resend)",
    )
    chaos.add_argument(
        "--fail-batches", type=int, default=0, metavar="N",
        help="with --socket: fail the first N batch admissions before "
             "any record is produced (clients must resend)",
    )
    chaos.add_argument(
        "--clients", type=int, default=2, metavar="N",
        help="with --socket: number of concurrent senders (default 2)",
    )
    chaos.add_argument("--max-dist", type=float, default=0.3,
                       help=argparse.SUPPRESS)

    bench = sub.add_parser(
        "bench",
        parents=[_config_parent(), _execution_parent()],
        help="run the deterministic perf-benchmark suite and write "
             "BENCH_<case>.json artifacts",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI-sized workloads (seconds instead of minutes)",
    )
    bench.add_argument(
        "-o", "--out", default=".", metavar="DIR",
        help="directory for BENCH_<case>.json artifacts (default: cwd)",
    )
    bench.add_argument(
        "--case", action="append", dest="cases", metavar="NAME",
        help="run only this primary case (repeatable)",
    )
    bench.add_argument(
        "--repeats", type=int, default=None,
        help="timed repetitions per case (default: suite preset)",
    )
    bench.add_argument(
        "--warmup", type=int, default=None,
        help="untimed warmup runs per case (default: suite preset)",
    )
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE_DIR",
        help="after running, diff against this baseline directory; "
             "exit 1 on regression (soft pass when it has no artifacts)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="relative median-regression budget for --compare "
             "(default 0.25)",
    )
    bench.add_argument(
        "--set", action="append", dest="param_overrides",
        metavar="KEY=VALUE",
        help="override one workload param (repeatable), e.g. "
             "--set engine_batch_records=256",
    )
    bench.add_argument(
        "--list", action="store_true", dest="list_cases",
        help="list the case catalog grouped by subsystem and exit",
    )

    query = sub.add_parser(
        "query",
        parents=[
            _storage_parent(
                required=True,
                help_text="the database to query: 'sqlite:PATH' "
                          "(or a bare PATH)",
            ),
            _json_parent("emit one JSON object per row instead of a table"),
        ],
        help="run read-only SQL against a sqlite storage database",
    )
    query.add_argument(
        "sql", help="a read-only SQL statement (SELECT / PRAGMA / "
                    "EXPLAIN); writes are rejected by the engine",
    )

    config = sub.add_parser(
        "config",
        help="validate or display a service config file (TOML/JSON)",
    )
    config_sub = config.add_subparsers(dest="config_command", required=True)
    config_check = config_sub.add_parser(
        "check",
        help="parse and validate; exit 2 with a diagnostic on error",
    )
    config_check.add_argument("path", help="config file to validate")
    config_show = config_sub.add_parser(
        "show",
        help="print the full effective config as JSON (every field, "
             "defaults included; webhook credentials redacted)",
    )
    config_show.add_argument("path", help="config file to render")

    alerts = sub.add_parser(
        "alerts",
        help="inspect alert rules, alert history, and sink wiring",
    )
    alerts_sub = alerts.add_subparsers(dest="alerts_command", required=True)
    alerts_list = alerts_sub.add_parser(
        "list",
        parents=[
            _config_parent(required=True),
            _json_parent("one JSON object per rule/sink"),
        ],
        help="list the alert rules and sinks a config file defines",
    )
    alerts_history = alerts_sub.add_parser(
        "history",
        parents=[
            _storage_parent(
                required=True,
                help_text="the service database: 'sqlite:PATH' "
                          "(alert history persists in the 'alerts' "
                          "table)",
            ),
            _json_parent("one JSON object per event instead of a table"),
        ],
        help="show persisted alert history from a sqlite database",
    )
    alerts_history.add_argument(
        "--rule", default=None, help="only events for this rule"
    )
    alerts_history.add_argument(
        "--state", default=None,
        help="only events in this state (firing/resolved/test)",
    )
    alerts_history.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show the last N events (default 20; 0 = all)",
    )
    alerts_fire = alerts_sub.add_parser(
        "test-fire",
        parents=[
            _config_parent(required=True),
            _json_parent("emit the synthetic event as JSON"),
        ],
        help="push a synthetic event for one rule through every "
             "configured sink (the 'is my pager wired up' check)",
    )
    alerts_fire.add_argument("rule", help="rule name from the config file")

    quality = sub.add_parser(
        "quality", help="report how well a model fits a log sample"
    )
    quality.add_argument("logs", help="sample log file ('-' for stdin)")
    quality.add_argument("-m", "--model", required=True)
    quality.add_argument(
        "--min-coverage", type=float, default=0.95,
        help="exit 1 when coverage falls below this (default 0.95)",
    )
    quality.add_argument("--max-dist", type=float, default=0.3,
                         help=argparse.SUPPRESS)

    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    lines = _read_lines(args.logs)
    if not lines:
        print("error: no training logs read", file=sys.stderr)
        return 2
    lens = _make_lens(args).fit(lines)
    lens.save(args.output)
    print(
        "trained on %d logs: %d patterns, %d automata -> %s"
        % (
            len(lines),
            len(lens.patterns),
            len(lens.sequence_model),
            args.output,
        )
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    lens = _make_lens(args).load(args.model)
    lines = _read_lines(args.logs)
    anomalies = lens.detect(
        lines,
        flush_open_events=not args.no_heartbeat,
        source=args.source,
    )
    for anomaly in anomalies:
        print(json.dumps(anomaly.to_dict(), sort_keys=True))
    print(
        "%d logs analysed, %d anomalies" % (len(lines), len(anomalies)),
        file=sys.stderr,
    )
    return 0 if not anomalies else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    payload = json.loads(Path(args.model).read_text())
    patterns = payload["pattern_model"]["patterns"]
    print("patterns (%d):" % len(patterns))
    for entry in patterns:
        print("  P%-4d %s" % (entry["id"], entry["grok"]))
    automata = payload["sequence_model"]["automata"]
    print("automata (%d):" % len(automata))
    for automaton in automata:
        print(
            "  A%-3d states=%s begin=%s end=%s duration=[%d, %d] ms"
            % (
                automaton["automaton_id"],
                [s["pattern_id"] for s in automaton["states"]],
                automaton["begin_states"],
                automaton["end_states"],
                automaton["min_duration_millis"],
                automaton["max_duration_millis"],
            )
        )
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    lens = _make_lens(args).load(args.model)
    unparsed = 0
    for line in _read_lines(args.logs):
        result = lens.parse(line)
        if isinstance(result, ParsedLog):
            print(json.dumps(result.to_dict(), sort_keys=True))
        else:
            unparsed += 1
            print(json.dumps({"_unparsed": line}, sort_keys=True))
    if unparsed:
        print("%d unparsed lines" % unparsed, file=sys.stderr)
    return 0


def _print_anomaly_docs(docs: List[Dict[str, Any]]) -> int:
    """Print anomaly docs as JSON lines, as stored; returns the count."""
    for doc in docs:
        print(json.dumps(doc, sort_keys=True), flush=True)
    return len(docs)


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from .service.agent import FileTailAgent

    service, status = _build_service(args, _make_lens(args))
    if status:
        return status
    source = args.source or Path(args.logfile).stem
    agent = FileTailAgent(
        service.bus,
        "logs.raw",
        source,
        args.logfile,
        from_beginning=args.from_beginning,
    )
    reported = 0
    polls = 0
    try:
        while args.max_polls is None or polls < args.max_polls:
            polls += 1
            agent.poll()
            reported += _print_anomaly_docs(service.step().anomaly_docs)
            if args.max_polls is None or polls < args.max_polls:
                time.sleep(args.poll_seconds)
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        service.close()
    print(
        "watched %d lines, %d anomalies" % (agent.shipped, reported),
        file=sys.stderr,
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a stream end to end, then render the unified metrics snapshot.

    Every layer reports into one registry (parse latency, index hit
    rate, per-batch engine latency, bus consumer lag, heartbeat sweeps),
    so this is the quickest way to see the whole pipeline's behaviour on
    a workload.
    """
    from .obs import get_registry, render_table

    registry = get_registry()
    registry.reset()  # only this run's activity in the report
    lines = _read_lines(args.logs)
    service, status = _build_service(args, _make_lens(args))
    if status:
        return status
    service.ingest(lines, source=args.source)
    service.run_until_drained()
    service.final_flush()
    snapshot = service.report().metrics
    service.close()
    if args.json:
        print(json.dumps(snapshot, sort_keys=True, indent=2))
    else:
        print(render_table(snapshot))
    print(
        "%d logs analysed, %d metric families"
        % (len(lines), len(snapshot)),
        file=sys.stderr,
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Prove fault tolerance end to end, deterministically.

    Replays a stream through the full service while a
    :class:`~repro.faults.FaultPlan` injects transient parse-operator
    failures (healed by retries), optional poison records (quarantined
    to the dead-letter topic), and optional flaky broadcast fetches.
    Backoff runs on a virtual clock, so the command never sleeps.  Exits
    0 only when every ingested record is accounted for — parsed,
    reported as an anomaly, or quarantined with failure metadata.
    """
    from .faults import FaultPlan, ManualClock
    from .obs import get_registry
    from .streaming.retry import RetryPolicy

    registry = get_registry()
    registry.reset()  # only this run's activity in the report
    clock = ManualClock()
    plan = FaultPlan(clock=clock)
    if args.fail_first > 0:
        plan.fail_first("operator:flat_map:*", args.fail_first)
    if args.poison is not None:
        needle = args.poison

        def is_poison(record):
            # The parse stage's records carry the raw line as their value.
            value = getattr(record, "value", None)
            return isinstance(value, str) and needle in value

        plan.poison("operator:flat_map:*", is_poison)
    if args.flaky_broadcast > 0:
        plan.flaky_broadcast_fetch(args.flaky_broadcast)
    if args.socket:
        if args.drop_connections > 0:
            plan.fail_first("ingest.accept", args.drop_connections)
        if args.fail_batches > 0:
            plan.fail_first("ingest.batch", args.fail_batches)
    elif args.drop_connections or args.fail_batches:
        print(
            "error: --drop-connections/--fail-batches need --socket",
            file=sys.stderr,
        )
        return 2
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        base_delay_seconds=0.01,
        clock=clock,
    )
    lines = _read_lines(args.logs)
    service, status = _build_service(
        args, _make_lens(args), retry_policy=policy, fault_plan=plan
    )
    if status:
        return status
    transport = None
    if args.socket:
        ingested, transport, pump_reports = _chaos_over_socket(
            service, lines, args, clock
        )
        step_reports = pump_reports + service.run_until_drained()
    else:
        ingested = service.ingest(lines, source=args.source)
        step_reports = service.run_until_drained()
    service.final_flush()

    report = service.report(include_metrics=False)
    dead_letters = service.drain_dead_letters()
    parsed = sum(r.parsed for r in step_reports)
    unparsed = len(service.anomaly_storage.by_type("unparsed_log"))
    parse_quarantined = service.parse_ctx.quarantined_total
    lost = ingested - parsed - unparsed - parse_quarantined

    doc = {
        "ingested": ingested,
        "parsed": parsed,
        "unparsed_anomalies": unparsed,
        "anomalies": report.anomalies,
        "open_events": report.open_events,
        "retries": report.quarantine.retries,
        "quarantined": report.quarantine.quarantined,
        "dead_letters": [m.value for m in dead_letters],
        "virtual_backoff_seconds": clock.total_slept,
        "faults": plan.snapshot(),
        "lost": lost,
    }
    if transport is not None:
        doc["transport"] = transport
        # Zero duplication over the socket: everything the clients got
        # acked for was admitted by the server exactly once.
        if transport["server_accepted"] != ingested:
            print(
                "FAIL: server admitted %d record(s) but clients were "
                "acked for %d" % (transport["server_accepted"], ingested),
                file=sys.stderr,
            )
            service.close()
            return 3
    service.close()
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(
            "chaos: %d ingested, %d parsed, %d unparsed, %d retries, "
            "%d quarantined, %d dead-lettered (%.3fs virtual backoff)"
            % (
                ingested, parsed, unparsed, doc["retries"],
                doc["quarantined"], len(dead_letters),
                clock.total_slept,
            )
        )
        if transport is not None:
            print(
                "socket: %d clients, %d connections (%d dropped), "
                "%d batch admissions failed, %d client resends"
                % (
                    transport["clients"],
                    transport["connections"],
                    transport["dropped_connections"],
                    transport["batch_retries"],
                    transport["client_retries"],
                )
            )
        for message in dead_letters:
            print("dead-letter: %s" % json.dumps(
                message.value, sort_keys=True, default=str
            ))
    if lost:
        print(
            "FAIL: %d record(s) unaccounted for under injected faults"
            % lost,
            file=sys.stderr,
        )
        return 3
    print(
        "OK: all %d records accounted for under injected faults"
        % ingested,
        file=sys.stderr,
    )
    return 0


def _chaos_over_socket(service, lines, args, clock):
    """Ship ``lines`` through the TCP front door with faults armed.

    Runs ``--clients`` concurrent :class:`~repro.ingest.IngestClient`
    senders against a loopback :class:`~repro.ingest.IngestServer`
    wired to ``service``, pumping ``service.step()`` on the main thread
    so backpressure drains while the senders run.  Client backoff uses
    the chaos run's virtual clock — no wall-clock sleeping.

    Returns ``(ingested, transport_doc, step_reports)`` where
    ``ingested`` counts only client-acked records.
    """
    import threading

    from .ingest import IngestClient, IngestServerThread, front_door
    from .streaming.retry import RetryPolicy

    door = front_door(service)
    server_thread = IngestServerThread(door).start()
    clients = max(1, args.clients)
    chunk = max(1, -(-len(lines) // clients))  # ceil division
    reports = []
    errors = []
    lock = threading.Lock()
    # The injected faults are shared across senders, so one unlucky
    # batch can absorb all of them: budget for that worst case.
    budget = (
        args.max_attempts + args.drop_connections + args.fail_batches
    )

    def run_client(index: int, payload: List[str]) -> None:
        policy = RetryPolicy(
            max_attempts=budget, base_delay_seconds=0.01, clock=clock
        )
        client = IngestClient(
            "127.0.0.1",
            server_thread.tcp_port,
            "%s-%d" % (args.source, index),
            batch_lines=door.limits.batch_lines,
            retry_policy=policy,
        )
        try:
            report = client.send(payload)
            client.close()
            with lock:
                reports.append(report)
        except Exception as exc:  # noqa: BLE001 - reported to the user
            with lock:
                errors.append("client %d: %s" % (index, exc))

    threads = [
        threading.Thread(
            target=run_client,
            args=(i, lines[i * chunk:(i + 1) * chunk]),
            daemon=True,
        )
        for i in range(clients)
    ]
    pump_reports = []
    try:
        for thread in threads:
            thread.start()
        while any(t.is_alive() for t in threads):
            pump_reports.append(service.step())
        for thread in threads:
            thread.join()
    finally:
        server_thread.stop()
    for error in errors:
        print("socket error: %s" % error, file=sys.stderr)
    transport = {
        "clients": clients,
        "accepted": sum(r.accepted for r in reports),
        "batches": sum(r.batches for r in reports),
        "client_retries": sum(r.retries for r in reports),
        "server_accepted": door.accepted_total,
        "server_shed": door.shed_total,
        "server_rejected": door.rejected_total,
        "batch_retries": door.retried_batches_total,
        "connections": door.connections_total,
        "dropped_connections": door.dropped_connections_total,
        "errors": errors,
    }
    return transport["accepted"], transport, pump_reports


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network front door over a live service until stopped.

    Binds the line-protocol TCP listener and the HTTP POST endpoint
    (docs/INGESTION.md), prints the bound ports to stderr (port 0 picks
    a free one — grep for ``listening``), then steps the service on a
    fixed cadence, printing each anomaly as one JSON line the moment it
    is detected.  On shutdown (``--max-steps`` or Ctrl-C) the remaining
    backlog is drained, open events are flushed, and an accounting
    summary goes to stderr.
    """
    import time

    from .ingest import IngestServerThread, front_door

    service, status = _build_service(args, _make_lens(args))
    if status:
        return status
    door = front_door(
        service,
        host=args.host,
        tcp_port=args.tcp_port,
        http_port=None if args.http_port < 0 else args.http_port,
        default_source=args.source,
    )
    thread = IngestServerThread(door).start()
    print(
        "listening tcp=%s:%s http=%s:%s"
        % (args.host, thread.tcp_port, args.host, thread.http_port),
        file=sys.stderr,
        flush=True,
    )

    reported = 0
    steps = 0
    try:
        while args.max_steps is None or steps < args.max_steps:
            steps += 1
            reported += _print_anomaly_docs(service.step().anomaly_docs)
            if args.max_steps is None or steps < args.max_steps:
                time.sleep(args.step_seconds)
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        thread.stop()
        for report in service.run_until_drained():
            reported += _print_anomaly_docs(report.anomaly_docs)
        reported += _print_anomaly_docs(service.flush_open_events())
        service.close()
    print(
        "served %d lines over %d connections (%d dropped) and "
        "%d http requests: %d anomalies, %d shed, %d rejected"
        % (
            door.accepted_total,
            door.connections_total,
            door.dropped_connections_total,
            door.http_requests_total,
            reported,
            door.shed_total,
            door.rejected_total,
        ),
        file=sys.stderr,
    )
    if service.alert_evaluator.rules:
        section = service.alert_evaluator.report_section()
        print(
            "alerts: %d fired, %d resolved, "
            "%d delivered, %d dead-lettered"
            % (
                section["fired"],
                section["resolved"],
                section["delivered"],
                section["dead_lettered"],
            ),
            file=sys.stderr,
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the deterministic benchmark suite; optionally gate on it."""
    from .bench import (
        compare_results,
        grouped_case_names,
        load_results,
        run_bench,
    )

    file_config = _load_file_config(args)
    execution = args.execution or (
        file_config.execution if file_config is not None else None
    ) or "serial"

    if args.list_cases:
        for group, names in grouped_case_names(quick=args.quick).items():
            print("%s:" % group)
            for name in names:
                print("  %s" % name)
        return 0
    overrides = {}
    for item in args.param_overrides or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            print("error: --set expects KEY=VALUE, got %r" % item,
                  file=sys.stderr)
            return 2
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        overrides[key] = value
    try:
        results = run_bench(
            quick=args.quick,
            repeats=args.repeats,
            warmup=args.warmup,
            only=args.cases,
            progress=lambda name: print(
                "bench: running %s ..." % name, file=sys.stderr, flush=True
            ),
            execution=execution,
            overrides=overrides or None,
        )
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if not results:
        print("error: no cases matched", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    for result in results:
        path = result.write(out_dir)
        throughput = (
            "  %12.0f rec/s" % result.records_per_second
            if result.records_per_second
            else ""
        )
        print(
            "%-28s median=%.6f %s%s  -> %s"
            % (result.case, result.median, result.unit, throughput, path)
        )
    if args.compare is None:
        return 0
    baseline = load_results(args.compare)
    current = {r.case: r.to_dict() for r in results}
    if args.cases:
        # A filtered run only measured the selected cases (plus their
        # derived ratios); judging the rest of the baseline against
        # nothing would report every absent case as a regression.
        baseline = {k: v for k, v in baseline.items() if k in current}
    if not baseline:
        print(
            "no baseline artifacts in %r; skipping the regression gate "
            "(soft pass)" % args.compare
        )
        return 0
    report = compare_results(baseline, current, tolerance=args.tolerance)
    print(report.summary())
    return 0 if report.ok else 1


def _database_file(storage: str, command: str) -> Optional[str]:
    """The existing SQLite file a read-only ``command`` inspects.

    ``storage`` is a ``--storage`` spec; a bare path stands for
    ``sqlite:PATH``.  Anything else (``memory``, a missing file) prints
    one ``error:`` line and returns ``None``.
    """
    from .service.backends import parse_storage_spec

    spec = storage
    if spec != "memory" and not spec.startswith("sqlite:"):
        spec = "sqlite:" + spec  # bare paths are a convenience alias
    try:
        config = parse_storage_spec(spec)
    except ValueError as exc:
        error = str(exc)
    else:
        if config.kind != "sqlite":
            error = "%r needs a sqlite database, got %r" % (
                command, config.describe(),
            )
        elif not Path(config.path).is_file():
            error = "no such database file: %s" % config.path
        else:
            return config.path
    print("error: %s" % error, file=sys.stderr)
    return None


def _cmd_query(args: argparse.Namespace) -> int:
    """Ad-hoc read-only SQL against a ``--storage sqlite:PATH`` database.

    The connection is opened with ``PRAGMA query_only=ON``, so any
    statement that tries to write is rejected by SQLite itself — this
    command can inspect a database a live service is appending to
    without risk (WAL mode allows concurrent readers).
    """
    import sqlite3

    from .service.sqlite_store import run_readonly_sql

    path = _database_file(args.storage, "query")
    if path is None:
        return 2
    try:
        columns, rows = run_readonly_sql(path, args.sql)
    except sqlite3.Error as exc:
        print("sql error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        for row in rows:
            print(json.dumps(
                dict(zip(columns, row)), sort_keys=True, default=str
            ))
    elif columns:
        widths = [
            max(len(str(col)), *(len(str(r[i])) for r in rows))
            if rows else len(str(col))
            for i, col in enumerate(columns)
        ]
        print("  ".join(
            str(col).ljust(w) for col, w in zip(columns, widths)
        ))
        print("  ".join("-" * w for w in widths))
        for row in rows:
            print("  ".join(
                str(cell).ljust(w) for cell, w in zip(row, widths)
            ))
    print("%d row(s)" % len(rows), file=sys.stderr)
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    """Validate (``check``) or render (``show``) a service config file.

    ``check`` exits 0 with a one-line summary when the file parses and
    every section, key, rule, and sink validates; a diagnostic naming
    the offending section/key and the valid choices goes to stderr
    otherwise.  ``show`` prints the *effective* configuration — every
    field after defaulting, webhook credentials redacted — as JSON, so
    operators can see exactly what a service built from this file would
    run with.
    """
    from .service.config import ServiceConfig

    config = ServiceConfig.from_file(args.path)
    if args.config_command == "show":
        print(json.dumps(config.describe(), sort_keys=True, indent=2))
        return 0
    print(
        "OK: %s — storage=%s execution=%s, %d alert rule(s), "
        "%d sink(s)"
        % (
            args.path,
            config.describe()["storage"],
            config.execution,
            len(config.alerts.rules),
            len(config.alerts.sinks),
        )
    )
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    """Operate on alerting without a live service.

    ``list`` shows the rules and sinks a config file defines; ``history``
    reads persisted alert events back out of a service's SQLite
    database; ``test-fire`` pushes a synthetic event for one rule
    through every configured sink, proving notification wiring end to
    end (deliveries are retried; exhausted sinks are reported).
    """
    if args.alerts_command == "history":
        return _cmd_alerts_history(args)

    from .service.config import ServiceConfig

    config = ServiceConfig.from_file(args.config)

    if args.alerts_command == "list":
        sinks = config.alerts.describe()["sinks"]
        if args.json:
            for rule in config.alerts.rules:
                print(json.dumps(rule.to_dict(), sort_keys=True))
            for sink in sinks:
                print(json.dumps({"sink": sink}, sort_keys=True))
        else:
            for rule in config.alerts.rules:
                print(
                    "%-24s %s %s %g (window %dms, type %s)"
                    % (
                        rule.name,
                        rule.signal,
                        rule.condition,
                        rule.threshold,
                        rule.window_millis,
                        rule.anomaly_type or "any",
                    )
                )
            for sink in sinks:
                print("sink: %s" % json.dumps(sink, sort_keys=True))
        print(
            "%d rule(s), %d sink(s)"
            % (len(config.alerts.rules), len(sinks)),
            file=sys.stderr,
        )
        return 0

    # test-fire: the full history/sink/dead-letter path, minus a service.
    from .alerts import AlertEvaluator

    evaluator = AlertEvaluator(
        config.alerts.rules, sinks=config.alerts.sinks
    )
    try:
        event = evaluator.test_fire(args.rule)
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(event.to_dict(), sort_keys=True))
    print(
        "test-fire %r: %d delivery(ies), %d dead-lettered"
        % (
            args.rule,
            evaluator.delivered_total,
            evaluator.dead_lettered_total,
        ),
        file=sys.stderr,
    )
    return 0 if evaluator.dead_lettered_total == 0 else 1


def _cmd_alerts_history(args: argparse.Namespace) -> int:
    """Print the ``alerts`` table of a service database, read-only.

    The rows are read through :func:`run_readonly_sql`, so the command
    never writes to the file it inspects: no table is created and the
    journal mode is left as it was.
    """
    import sqlite3

    from .service.sqlite_store import run_readonly_sql

    path = _database_file(args.storage, "alerts history")
    if path is None:
        return 2
    try:
        _, rows = run_readonly_sql(
            path, "SELECT _doc FROM alerts ORDER BY _id"
        )
    except sqlite3.Error as exc:
        print(
            "error: %s holds no alert history (%s)" % (path, exc),
            file=sys.stderr,
        )
        return 2
    events = [json.loads(doc) for (doc,) in rows]
    if args.rule is not None:
        events = [e for e in events if e.get("rule") == args.rule]
    if args.state is not None:
        events = [e for e in events if e.get("state") == args.state]
    total = len(events)
    if args.limit:
        events = events[-args.limit:]
    for event in events:
        doc = {k: v for k, v in event.items() if k != "_id"}
        if args.json:
            print(json.dumps(doc, sort_keys=True))
        else:
            print(
                "%-14d %-10s %-24s %s %s %g (value %s)"
                % (
                    doc.get("timestamp_millis", 0),
                    doc.get("state", "?"),
                    doc.get("rule", "?"),
                    doc.get("signal", "?"),
                    doc.get("condition", "?"),
                    doc.get("threshold", 0.0),
                    doc.get("value"),
                )
            )
    print(
        "%d event(s) shown of %d" % (len(events), total),
        file=sys.stderr,
    )
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from .parsing.quality import evaluate_pattern_model

    lens = _make_lens(args).load(args.model)
    lines = _read_lines(args.logs)
    report = evaluate_pattern_model(lens.pattern_model, lines)
    print(report.summary())
    for example in report.unparsed_examples:
        print("  unparsed:", example, file=sys.stderr)
    return 0 if report.coverage >= args.min_coverage else 1


_COMMANDS = {
    "train": _cmd_train,
    "detect": _cmd_detect,
    "inspect": _cmd_inspect,
    "parse": _cmd_parse,
    "watch": _cmd_watch,
    "serve": _cmd_serve,
    "quality": _cmd_quality,
    "metrics": _cmd_metrics,
    "chaos": _cmd_chaos,
    "bench": _cmd_bench,
    "query": _cmd_query,
    "config": _cmd_config,
    "alerts": _cmd_alerts,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout went away (``loglens ... | head``). Point
        # stdout at devnull so the flush at exit cannot raise again, and
        # exit non-zero with nothing on stderr (Python's SIGPIPE recipe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ConfigFileError, StorageLayoutError) as exc:
        # A bad config file or an old-layout database: the message names
        # the file and what is wrong with it, so no traceback.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
