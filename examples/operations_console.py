"""An operations console: dashboard, anomaly clustering, nightly relearn.

Combines three management-plane components around a running service:

* the **dashboard** back-end (Section II-B "Visualization Dashboard") —
  ad-hoc queries, per-type histograms, a timeline, model inspection,
  and a drill-down from an anomaly to the archived logs around it;
* **temporal anomaly clustering** — the Figure-6 analysis that surfaces
  attack bursts as clusters;
* the **relearn automation** (Section II-B) — "every midnight, rebuild
  models from the last seven days of logs", driven here by log time so
  the replay is deterministic.

Run:  python examples/operations_console.py
"""

from repro import LogLens
from repro.core import cluster_anomalies
from repro.datasets import generate_ss7
from repro.service import AdHocQuery, Dashboard, RelearnAutomation

# ----------------------------------------------------------------------
# 1. Train on normal SS7 traffic, deploy, and stream the attack hour.
# ----------------------------------------------------------------------
dataset = generate_ss7(
    train_events=800, test_normal_events=500, attack_count=200,
    n_clusters=4,
)
lens = LogLens().fit(dataset.train)
service = lens.to_service()

relearn = RelearnAutomation(
    service, "ss7-probe", period_millis=24 * 3600 * 1000
)

service.ingest(dataset.test, source="ss7-probe")
while True:
    report = service.step()
    if report.ingested == 0:
        break
    # The automation advances on log time (heartbeat-extrapolated).
    now = service.heartbeat_controller.estimated_time("ss7-probe")
    if now is not None:
        relearn.advance(now)
service.final_flush()

# ----------------------------------------------------------------------
# 2. The dashboard: canned panels and an ad-hoc query.
# ----------------------------------------------------------------------
dashboard = Dashboard(
    service.anomaly_storage,
    log_storage=service.log_storage,
    model_storage=service.model_storage,
    metrics=service.metrics,
)

print(dashboard.render_text(feed_limit=5))

print("\nTimeline (5-minute buckets):")
for bucket, count in dashboard.timeline(bucket_millis=300_000):
    print("    %d  %s" % (bucket, "#" * min(count, 60)))

critical = dashboard.query(
    AdHocQuery(type="missing_end", min_severity=2, limit=3)
)
print("\nAd-hoc query — top severe missing-end anomalies: %d shown"
      % len(critical))

# ----------------------------------------------------------------------
# 3. Cluster the anomalies in time (Figure 6).
# ----------------------------------------------------------------------
clusters = cluster_anomalies(
    dashboard.query(), max_gap_millis=120_000, min_cluster_size=5
)
print("\nAnomaly clusters (attack bursts):")
for idx, cluster in enumerate(clusters, 1):
    print(
        "    cluster %d: %3d anomalies over %4.1f min "
        "(%.0f anomalies/min)"
        % (
            idx,
            cluster.size,
            cluster.span_millis / 60_000,
            cluster.density_per_minute,
        )
    )

# ----------------------------------------------------------------------
# 4. Drill down: the archived logs around the first anomaly of a burst.
# ----------------------------------------------------------------------
first = min(
    clusters[0].anomalies, key=lambda doc: doc["timestamp_millis"]
)
context = dashboard.context_logs(first, window_millis=5_000)
print(
    "\nDrill-down: %d archived log(s) within 5 s of the %s at %d"
    % (len(context), first["type"], first["timestamp_millis"])
)
for raw in context[:3]:
    print("    " + raw)

# ----------------------------------------------------------------------
# 5. Inspect the models the service is currently running.
# ----------------------------------------------------------------------
summary = dashboard.model_summary()
print(
    "\nDeployed models: %d patterns (v%d), %d automata (v%d)"
    % (
        summary["patterns"]["count"],
        summary["patterns"]["version"],
        summary["automata"]["count"],
        summary["automata"]["version"],
    )
)

assert len(clusters) == 4
assert context
assert sum(c.size for c in clusters) == dataset.attack_count
print("\nOK — four attack bursts surfaced on the console.")
