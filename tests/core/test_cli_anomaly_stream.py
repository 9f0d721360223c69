"""`loglens watch` and `serve` print the anomaly docs each step returns.

Both commands stream every anomaly as one JSON line the moment its step
ends.  They used to find those by re-reading the whole anomaly table
after every step — a cost quadratic in the length of a run.  These tests
drive 30 steps with the table's ``all`` counted: it is never called,
and the printed lines are exactly the stored docs (less ``_id``), in
storage order — what the re-reading loop printed.
"""

import json
import threading
import time
from unittest import mock

import pytest

from repro import cli
from repro.cli import main
from repro.service.config import ServiceConfig
from repro.service.loglens_service import LogLensService
from repro.service.storage import AnomalyStorage

from tests.service.test_loglens_service import event_lines, training_lines

STEPS = 30
REAL_ALL = AnomalyStorage.all
REAL_SLEEP = time.sleep


def batch(i):
    # Every third event never closes: a heartbeat expires it, or the
    # final flush reports it.  Garbage with and without a timestamp.
    lines = event_lines("cli-%d" % i, i, finish=i % 3 != 0)
    lines.append("completely unknown format %d !!" % i)
    if i % 2:
        lines.append("2016/05/09 10:%02d:05 ?? unknown ?? %d" % (i, i))
    return lines


@pytest.fixture
def model_file(tmp_path):
    train = tmp_path / "train.log"
    train.write_text("\n".join(training_lines()) + "\n")
    out = tmp_path / "model.json"
    assert main(["train", str(train), "-o", str(out)]) == 0
    return out


@pytest.fixture(params=["memory", "sqlite"])
def storage_args(request, tmp_path):
    if request.param == "memory":
        return []
    return ["--storage", "sqlite:%s" % (tmp_path / "cli.db")]


def stored_lines(service, storage_args):
    """The stored anomaly docs as the old re-reading loop printed them."""
    if storage_args:
        service = LogLensService(config=ServiceConfig(storage=storage_args[1]))
    try:
        docs = REAL_ALL(service.anomaly_storage)
    finally:
        if storage_args:
            service.close()
    return [
        json.dumps(
            {k: v for k, v in doc.items() if k != "_id"}, sort_keys=True
        )
        for doc in docs
    ]


def run_counted(argv, on_sleep):
    """Run the CLI with ``AnomalyStorage.all`` counted and each
    main-thread sleep replaced by ``on_sleep(service)``."""
    built = []
    real_build = cli._build_service

    def build(*args, **kwargs):
        service, status = real_build(*args, **kwargs)
        built.append(service)
        return service, status

    def sleep(seconds):
        if threading.current_thread() is threading.main_thread():
            on_sleep(built[0])
        else:
            REAL_SLEEP(seconds)

    with mock.patch.object(cli, "_build_service", build), mock.patch.object(
        AnomalyStorage, "all", autospec=True, side_effect=REAL_ALL
    ) as all_spy, mock.patch("time.sleep", sleep):
        assert main(argv) == 0
    assert all_spy.call_count == 0
    return built[0]


def test_watch_prints_each_steps_docs(
    tmp_path, model_file, storage_args, capsys
):
    logfile = tmp_path / "app.log"
    logfile.write_text("\n".join(batch(0)) + "\n")
    appended = [0]

    def append(_service):
        appended[0] += 1
        with logfile.open("a") as handle:
            handle.write("\n".join(batch(appended[0])) + "\n")

    service = run_counted(
        [
            "watch", str(logfile), "-m", str(model_file),
            "--from-beginning", "--max-polls", str(STEPS),
            "--poll-seconds", "0", *storage_args,
        ],
        append,
    )
    captured = capsys.readouterr()
    printed = captured.out.splitlines()
    assert printed == stored_lines(service, storage_args)
    types = {json.loads(line)["type"] for line in printed}
    assert {"unparsed_log", "missing_end"} <= types
    assert "%d anomalies" % len(printed) in captured.err


def test_serve_prints_each_steps_and_the_final_flush_docs(
    tmp_path, model_file, storage_args, capsys
):
    # Without heartbeats every open event waits for the final flush.
    config = tmp_path / "serve.json"
    config.write_text(json.dumps({"service": {"heartbeats_enabled": False}}))
    ingested = [0]
    flushed = []
    real_flush = LogLensService.flush_open_events

    def ingest(service):
        service.ingest(batch(ingested[0]), source="app")
        ingested[0] += 1

    def flush(service):
        flushed.extend(real_flush(service))
        return flushed

    with mock.patch.object(LogLensService, "flush_open_events", flush):
        service = run_counted(
            [
                "serve", "-m", str(model_file), "-c", str(config),
                "--tcp-port", "0",
                "--http-port", "-1", "--step-seconds", "0",
                "--max-steps", str(STEPS), *storage_args,
            ],
            ingest,
        )
    assert ingested[0] == STEPS - 1
    captured = capsys.readouterr()
    printed = captured.out.splitlines()
    assert printed == stored_lines(service, storage_args)
    # The final flush's docs close the stream.
    assert len(flushed) == len(range(0, STEPS - 1, 3))
    assert printed[-len(flushed):] == [
        json.dumps(doc, sort_keys=True) for doc in flushed
    ]
    assert ": %d anomalies" % len(printed) in captured.err
