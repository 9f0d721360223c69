"""The output check turns every kind of damage into ``failed > 0``."""

import copy

import run

PREP = {
    "reference": [
        ["duration_violation", "req-000002", 1],
        ["missing_end", "req-000001", 1],
        ["unparsed_log", None, 3],
    ],
    "injected": ["req-000001", "req-000002"],
}


def _closed_loop_round():
    return {
        "workload": "durable",
        "offered_lines": 1000,
        "logs_archived": 1000,
        "anomalies": copy.deepcopy(PREP["reference"]),
        "quarantined": 0,
        "reopened_logs": 1000,
        "reopened_anomalies": copy.deepcopy(PREP["reference"]),
    }


def _socket_round(paced_batches=4):
    markers = [["p%d" % k, 10 * k, 10 * k + 5] for k in range(paced_batches)]
    markers.append(["blast-end", 100, 200])
    return {
        "workload": "socket",
        "offered_lines": 1000,
        "logs_archived": 1000,
        "anomalies": copy.deepcopy(PREP["reference"]),
        "quarantined": 0,
        "generator": {"sent_lines": 1000, "acked_lines": 1000},
        "accepted": 1000,
        "shed": 0,
        "rejected": 0,
        "markers": markers,
        "paced_backlog_max": 120,
        "backlog_at_exit": 0,
    }


def _failed(result, paced_batches=4):
    return sum(run.round_failures(result, PREP, paced_batches).values())


def test_clean_rounds_have_no_failures():
    assert _failed(_closed_loop_round()) == 0
    assert _failed(_socket_round()) == 0


def test_a_dropped_line_fails():
    result = _closed_loop_round()
    result["logs_archived"] -= 1
    assert run.round_failures(result, PREP, 4)["not_archived"] == 1


def test_a_perturbed_anomaly_fails():
    result = _closed_loop_round()
    result["anomalies"][0][0] = "missing_begin"  # right event, wrong type
    assert run.round_failures(result, PREP, 4)["anomaly_mismatch"] == 2
    result = _closed_loop_round()
    result["anomalies"][2][2] = 2  # one unparsed line went unreported
    assert _failed(result) == 1


def test_an_unflagged_injected_event_fails():
    result = _closed_loop_round()
    del result["anomalies"][1]
    causes = run.round_failures(result, PREP, 4)
    assert causes["injected_missed"] == 1 and causes["anomaly_mismatch"] == 1


def test_loss_across_close_and_reopen_fails():
    result = _closed_loop_round()
    result["reopened_logs"] = 990
    result["reopened_anomalies"][2][2] = 1
    assert run.round_failures(result, PREP, 4)["lost_on_reopen"] == 12


def test_a_missing_marker_fails():
    result = _socket_round()
    del result["markers"][2]
    assert run.round_failures(result, PREP, 4)["markers_missing"] == 1


def test_unacked_shed_and_backlogged_lines_fail():
    result = _socket_round()
    result["generator"]["acked_lines"] = 950
    result["shed"] = 50
    result["paced_backlog_max"] = 3500
    causes = run.round_failures(result, PREP, 4)
    assert causes["not_acked"] == 50
    assert causes["shed"] == 50
    assert causes["backlog_excess"] == 500


def test_multiset_distance_counts_both_directions():
    assert run.multiset_distance(PREP["reference"], PREP["reference"]) == 0
    assert run.multiset_distance(PREP["reference"], []) == 5
