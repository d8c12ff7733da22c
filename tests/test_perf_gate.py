"""The perf gate's committed trajectory and verdict; no benchmark runs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "benchmarks"))

import perf_gate  # noqa: E402

WORKLOADS, METRICS = perf_gate.contract()
COMMITTED = perf_gate.latest_entries()


def _past_the_bound(committed, metric, factor):
    """A value ``factor`` times beyond ``committed``'s bound."""
    past = (1.0 + metric["bound"]) * factor
    return committed * past if metric["better"] == "lower" \
        else committed / past


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_has_a_committed_entry(workload):
    entry = COMMITTED.get(workload)
    assert entry is not None, f"{workload}: no entry in BENCH_e2e.json"
    assert set(entry["metrics"]) == {metric["name"] for metric in METRICS}
    assert all(value > 0 for value in entry["metrics"].values())
    assert entry["shares"]
    assert sum(entry["shares"].values()) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("workload, metric", [
    pytest.param(workload, metric, id=f"{workload}-{metric['name']}")
    for workload in WORKLOADS for metric in METRICS])
def test_just_past_the_bound_fails_and_1x_passes(workload, metric):
    committed = COMMITTED[workload]["metrics"][metric["name"]]
    worse = _past_the_bound(committed, metric, 1.001)
    assert perf_gate.regressed(worse, committed, metric)
    assert not perf_gate.regressed(committed, committed, metric)


def test_share_moves_name_the_layer_that_rose_most_first():
    committed = {"simcore": 0.35, "mesh": 0.32, "core": 0.18,
                 "crypto": 0.07, "workloads": 0.08}
    now = {"simcore": 0.45, "mesh": 0.27, "core": 0.15,
           "crypto": 0.06, "workloads": 0.07}
    moves = perf_gate.share_moves(now, committed)
    assert moves[0][0] == "simcore"
    assert moves[0][1] == pytest.approx(0.10)
    assert moves[-1][0] == "mesh"  # the largest fall comes last


def test_layer_shares_sum_meshes_and_drop_harness_and_idle_layers():
    def recording(wall_s, spans):
        return {"wall_s": wall_s, "spans": [
            {"layer": layer, "self_s": self_s} for layer, self_s in spans]}
    trace = {"meshes": {
        "istio": recording(2.0, [("harness", 0.5), ("simcore.sim", 1.0),
                                 ("mesh.istio", 0.5), ("fleet.model", 0.0)]),
        "canal": recording(2.0, [("harness", 0.5), ("simcore.sim", 0.5),
                                 ("core.gateway", 0.5), ("core.onnode", 0.5)]),
    }}
    assert perf_gate.layer_shares(trace) == pytest.approx(
        {"core": 1 / 3, "mesh": 1 / 6, "simcore": 1 / 2}, abs=1e-4)


def test_a_failure_is_judged_on_the_better_of_two_runs():
    def run(*values):
        return {"correct": True, "failed": 0, "metrics": {
            metric["name"]: {"value": value, "unit": metric["unit"]}
            for metric, value in zip(METRICS, values)}}
    entry = {"metrics": {metric["name"]: 1.0 for metric in METRICS}}
    noisy = run(*(_past_the_bound(1.0, metric, 2.0) for metric in METRICS))
    assert perf_gate.check(noisy, entry, METRICS)[1]
    best = perf_gate.best_of(noisy, run(*[1.0] * len(METRICS)), METRICS)
    assert perf_gate.check(best, entry, METRICS)[1] == []
    assert perf_gate.check(perf_gate.best_of(noisy, noisy, METRICS),
                           entry, METRICS)[1]
