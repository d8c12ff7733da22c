"""Tests for the end-to-end benchmark and its span recorder.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import run
from spans import Recorder, SpanGen

from repro.core.canal import CanalMesh
from repro.experiments import EXPERIMENTS
from repro.simcore import Interrupt, Simulator

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _traced_drive(count=2000):
    recorder = Recorder(request_roots=child.request_roots(), raw_limit=20)
    result = child.drive("datapath", "canal", 7, count, recorder)
    return recorder, result


def test_layer_self_times_sum_to_traced_wall():
    recorder, result = _traced_drive()
    assert recorder.self_s() == pytest.approx(recorder.wall_s, rel=0.02)
    # ...and the recording itself covers the measured wall time.
    assert recorder.wall_s == pytest.approx(result["wall"], rel=0.02)
    for stats in recorder.stats.values():
        assert stats[3] >= 0.0 and stats[2] >= stats[3]


def test_tracing_does_not_perturb_the_model():
    recorder, traced = _traced_drive()
    untraced = child.drive("datapath", "canal", 7, 2000)
    assert traced["digest"] == untraced["digest"]
    assert traced["events"] == untraced["events"]
    assert recorder.requests == traced["completed"]
    kept = {span["trace"] for span in recorder.raw}
    assert kept == set(range(1, 21))


def test_interrupt_reaches_a_wrapped_process_body():
    sim = Simulator(seed=1)
    seen = []

    def victim():
        try:
            # Interrupted while delegating into another wrapped span.
            yield from sim_cpu.execute(10.0)
        except Interrupt as exc:
            seen.append((exc.cause, sim.now))

    def scenario():
        target = sim.process(victim())
        yield sim.timeout(1.0)
        target.interrupt("stop")
        return target

    from repro.simcore import CpuResource
    sim_cpu = CpuResource(sim, cores=1)
    recorder = Recorder()

    def body():
        process = sim.process(scenario())
        sim.run()
        return process

    process = recorder.run(body)
    assert seen == [("stop", 1.0)]
    assert isinstance(process.value._generator, SpanGen)
    assert recorder.calls("repro.simcore.resources",
                          "CpuResource.execute") == 1


def test_uninstall_restores_every_patch_by_identity():
    import repro.mesh.istio
    import repro.fleet.model
    originals = {
        "process": Simulator.__dict__["process"],
        "run": Simulator.__dict__["run"],
        "request": CanalMesh.__dict__["request"],
        "mtls": repro.mesh.istio.mtls_handshake,
        "sojourn": repro.fleet.model.sojourn_mean_s,
        "fig2": EXPERIMENTS["fig2"],
    }
    recorder = Recorder()
    recorder.install()
    try:
        assert Simulator.__dict__["process"] is not originals["process"]
        assert repro.mesh.istio.mtls_handshake is not originals["mtls"]
        assert EXPERIMENTS["fig2"] is not originals["fig2"]
    finally:
        restored = recorder.uninstall()
    assert len(restored) > 40
    for owner, name, original, is_item in restored:
        current = owner[name] if is_item else owner.__dict__[name]
        assert current is original, (owner, name)
    assert Simulator.__dict__["process"] is originals["process"]
    assert Simulator.__dict__["run"] is originals["run"]
    assert CanalMesh.__dict__["request"] is originals["request"]
    assert repro.mesh.istio.mtls_handshake is originals["mtls"]
    assert repro.fleet.model.sojourn_mean_s is originals["sojourn"]
    assert EXPERIMENTS["fig2"] is originals["fig2"]


def _benchmark_json():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert spec["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--scale", "0.05", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, timeout=600, check=False)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _benchmark_json()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "datapath"],
        cwd=tmp_path, stdout=subprocess.PIPE, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == b""
