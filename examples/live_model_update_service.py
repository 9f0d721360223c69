"""Zero-downtime model updates on a running service (paper, Section V-A).

Spark broadcast variables are immutable: updating a model normally means
restarting the job, losing all open event state.  LogLens rebroadcasts
models between micro-batches instead.  This example drives the Table V
experiment live: while the service processes a stream, a human operator
deletes one automaton through the model manager — the running detectors
pick the change up at the next batch boundary, open events survive, and
the step that applies the change parses every line it polled: the only
pause is the in-memory swap between batches, which the engine times.

Run:  python examples/live_model_update_service.py
"""

from repro import LogLens
from repro.datasets import generate_d2

# ----------------------------------------------------------------------
# 1. Train on D2 (three workflows -> three automata) and deploy.
# ----------------------------------------------------------------------
dataset = generate_d2(events_per_workflow=300)
lens = LogLens().fit(dataset.train)
print("Automata in the deployed model: %d" % len(lens.sequence_model))

service = lens.to_service()

# ----------------------------------------------------------------------
# 2. Phase one: replay half of the anomalous test stream.
# ----------------------------------------------------------------------
half = len(dataset.test) // 2
service.ingest(dataset.test[:half], source="d2")
service.run_until_drained()
print(
    "After phase one: %d anomalies, %d events still open"
    % (service.anomaly_storage.count(), service.open_event_count())
)

# ----------------------------------------------------------------------
# 3. The operator deletes the user-session automaton — THE SERVICE KEEPS
#    RUNNING.  The manager stores a new model version and the controller
#    queues a rebroadcast that the scheduler applies between batches.
# ----------------------------------------------------------------------
target = max(
    lens.sequence_model,
    key=lambda a: a.automaton_id,
).automaton_id
version = service.model_manager.delete_automaton(target)
print(
    "\nDeleted automaton %d -> sequence model version %d (queued, "
    "no restart)" % (target, version)
)

# ----------------------------------------------------------------------
# 4. Phase two: the rest of the stream flows through the updated model.
# ----------------------------------------------------------------------
service.ingest(dataset.test[half:], source="d2")
swaps = service.metrics.histogram("engine.rebroadcast_apply_seconds")
before = swaps.sum
applying = service.step()
swap_seconds = swaps.sum - before
service.run_until_drained()
service.final_flush()

final = service.report(include_metrics=False)
print("\nFinal state:")
print("    anomalies stored : %d" % final.anomalies)
print("    model updates    : %d" % final.model_updates)
print(
    "    applying step    : %d of %d lines parsed, swap %.3f ms"
    % (applying.parsed, applying.ingested, swap_seconds * 1e3)
)

assert applying.model_updates_applied == 1
assert applying.parsed == applying.ingested > 0
print(
    "\nOK — the model changed mid-stream with zero downtime and no "
    "state loss."
)
