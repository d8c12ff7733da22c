"""One unit of benchmark work, run in a fresh interpreter.

``run.py`` starts this file as ``python child.py '<json task>'`` with
``src`` on ``PYTHONPATH``; it prints one JSON object as the last line
of its standard output. Tasks:

* ``setup`` — import ``repro`` and build the workload's world (three
  testbeds, the exhibit registry, or a fleet region); reports the
  seconds that took.
* ``traffic`` — the ``datapath`` and ``shortflow`` open loops: repeats
  with the meshes interleaved until ``seconds`` pass, then, on traced
  runs, one untimed no-mesh run and one traced pass per mesh.
* ``regen`` — regenerate a list of exhibits serially through the result
  cache: cold into an empty cache directory, warm from a filled one.
* ``fleet`` — run one fluid-tier region until ``seconds`` pass.

Timings are reported twice: as measured (``wall``), and at reference
speed (``norm``). The host is shared, and its speed drifts by tens of
percent over minutes; every sample is therefore bracketed by a fixed
pure-Python calibration loop that runs no ``repro`` code, and its wall
time is scaled by ``REFERENCE_S`` over the mean of the two calibration
times.
Every wall-clock read is the benchmark's own measurement, never a model
input, hence the DET001 waivers.
"""

import time

STARTED = time.perf_counter()  # simlint: ignore[DET001] benchmark clock

import gc  # noqa: E402  (imports follow the start-up clock read)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

from spans import Recorder  # noqa: E402

ARCHS = ("istio", "ambient", "canal")

#: Open-loop rates, simulated req/s: about 70% of each mesh's fig11
#: knee, so the CPU queues contend but no backlog grows. The no-mesh
#: floor runs at Canal's rate.
DATAPATH_RPS = {"istio": 1000.0, "ambient": 4200.0, "canal": 7700.0,
                "no-mesh": 7700.0}
#: Persistent connections of the datapath loop (fig11's wrk setting).
CONNECTIONS = 100
#: Short flows per simulated second, each with a fresh mTLS handshake.
SHORTFLOW_RPS = 200.0
#: The fluid-tier region: fleet_fig19's 1,000-service point (4 AZs x
#: 160 backends, shuffle-sharded), 600 simulated seconds in 5 s flow
#: steps, with backend 0 down from t=60 s to t=360 s.
FLEET_SERVICES = 1000
FLEET_HORIZON_S = 600.0

#: The calibration loop reads one double per 64-byte cache line of an
#: 8 MB array (contention for caches and memory bandwidth), then spins
#: on integer arithmetic (contention for the core): about 11 ms.
WALK = array("d", bytes(8 << 20))
WALK_STRIDE = 8
SPIN_LOOPS = 100_000
#: Seconds the calibration loop takes on the reference machine, a quiet
#: 2.1 GHz x86-64 vCPU running CPython 3.11; normalized times are in
#: that machine's seconds.
REFERENCE_S = 0.0110


def _clock() -> float:
    return time.perf_counter()  # simlint: ignore[DET001] benchmark clock


def calibrate() -> float:
    """Seconds of the calibration loop, the machine-speed yardstick."""
    walk = WALK
    started = _clock()
    total = 0.0
    for index in range(0, len(walk), WALK_STRIDE):
        total += walk[index]
    for index in range(SPIN_LOOPS):
        total += index & 7
    return _clock() - started


def normalized(wall: float, before: float, after: float) -> float:
    """``wall`` at reference speed, from the calibrations around it."""
    return wall * 2.0 * REFERENCE_S / (before + after)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def repeat(task: dict, sample) -> list:
    """Call ``sample()`` until ``task["seconds"]`` pass, and at least
    ``task["min_repeats"]`` times; returns the samples."""
    samples, started = [], _clock()
    while (len(samples) < task["min_repeats"]
           or _clock() - started < task["seconds"]):
        samples.append(sample())
    return samples


def _write_trace(workload: str, dump: dict) -> None:
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"trace-{workload}.json"), "w") as handle:
        json.dump(dump, handle)


# -- setup ---------------------------------------------------------------------

def task_setup(task: dict) -> dict:
    if task["workload"] in ("datapath", "shortflow"):
        from repro.experiments.testbed import build_testbed
        for arch in ARCHS:
            build_testbed(arch, seed=task["seed"])
    elif task["workload"] == "fleet":
        build_region(task["seed"])
    else:
        from repro.experiments import exhibit_ids
        exhibit_ids()
    wall = _clock() - STARTED
    return {"wall": wall, "norm": normalized(wall, calibrate(), calibrate())}


# -- datapath / shortflow -------------------------------------------------------

def request_roots():
    """Code objects whose processes start one request (or flow) trace."""
    from repro.workloads.generators import ShortFlowDriver, _DriverBase
    return {_DriverBase._one_request.__code__, ShortFlowDriver._flow.__code__}


def drive(workload: str, arch: str, seed: int, count: int,
          recorder: Recorder = None) -> dict:
    """Offer about ``count`` requests (or flows) to one fresh testbed.

    Poisson arrivals come from the seeded simulator, in simulated time,
    so the schedule does not depend on how fast the host runs. Only the
    driver run is timed, not building the testbed.
    """
    from repro.experiments.testbed import build_testbed
    from repro.workloads import OpenLoopDriver, ShortFlowDriver
    run = build_testbed(arch, seed=seed)
    if workload == "datapath":
        rate = DATAPATH_RPS[arch]
        driver = OpenLoopDriver(run.sim, run.mesh, run.client_pod, "svc1",
                                rps=rate, duration_s=count / rate,
                                connections=CONNECTIONS)
    else:
        driver = ShortFlowDriver(run.sim, run.mesh, run.client_pod, "svc1",
                                 rps=SHORTFLOW_RPS,
                                 duration_s=count / SHORTFLOW_RPS)
    gc.collect()
    events = run.sim._sequence
    before = calibrate()
    started = _clock()
    if recorder is None:
        report = run.run_driver(driver)
    else:
        report = recorder.run(run.run_driver, driver)
    wall = _clock() - started
    return {
        "wall": wall,
        "norm": normalized(wall, before, calibrate()),
        "offered": report.offered,
        "completed": report.completed,
        "failed": (report.offered - report.completed
                   + sum(1 for status in report.statuses if status != 200)),
        "events": run.sim._sequence - events,
        "digest": _digest(report.latency.values, report.statuses),
    }


def traced_layers(recorder: Recorder, arch: str, completed: int) -> dict:
    """The per-request layer split of one traced mesh pass."""
    us = 1e6 / completed
    layers = {
        f"simcore.us_per_req.{arch}": recorder.self_s("simcore") * us,
        f"workloads.us_per_req.{arch}": recorder.self_s("workloads") * us,
        f"mesh.us_per_req.{arch}": recorder.self_s("mesh") * us,
        f"crypto.us_per_req.{arch}": recorder.self_s("crypto") * us,
        f"simcore.processes_per_req.{arch}":
            recorder.counts["processes"] / completed,
        f"mesh.proxy_work_per_req.{arch}":
            recorder.calls("repro.mesh.proxy", "ProxyTier.work") / completed,
        f"crypto.asym_ops_per_req.{arch}": (
            recorder.calls("repro.crypto.accelerator",
                           "SoftwareAsymEngine.submit")
            + recorder.calls("repro.crypto.accelerator",
                             "BatchedAccelerator.submit")) / completed,
        f"obs.calls_per_req.{arch}": recorder.counts["obs"] / completed,
    }
    if arch == "canal":
        layers.update({
            "core.us_per_req.canal": recorder.self_s("core") * us,
            "core.gateway.us_per_req.canal":
                recorder.self_s("core.gateway") * us,
            "core.onnode.us_per_req.canal":
                recorder.self_s("core.onnode") * us,
            "core.key_server.us_per_req.canal":
                recorder.self_s("core.key_server") * us,
            "core.gateway.calls_per_req.canal": recorder.calls(
                "repro.core.gateway", "MeshGateway.process_request")
            / completed,
        })
    return layers


def task_traffic(task: dict) -> dict:
    """Repeats of ``count`` requests per mesh, the meshes interleaved.

    Returns per-repeat seconds for ``count`` completed requests on each
    of the three meshes, each mesh's simulated req/s, and the checks.
    """
    workload, seed, count = task["workload"], task["seed"], task["count"]
    runs = repeat(task, lambda: {arch: drive(workload, arch, seed, count)
                                 for arch in ARCHS})
    first = runs[0]
    checks = {
        "all responses 200, completed == offered":
            all(run[arch]["failed"] == 0 for run in runs for arch in ARCHS),
        "same-seed repeats give one digest":
            all(run[arch]["digest"] == first[arch]["digest"]
                for run in runs for arch in ARCHS),
    }
    norm = {arch: [run[arch]["norm"] * count / run[arch]["completed"]
                   for run in runs] for arch in ARCHS}
    out = {
        "work_s": sum(statistics.median(norm[arch]) for arch in ARCHS),
        "rps": {arch: count / statistics.median(norm[arch]) for arch in ARCHS},
        "attempted": sum(run[arch]["offered"] for run in runs
                         for arch in ARCHS),
        "failed": sum(run[arch]["failed"] for run in runs for arch in ARCHS),
        "checks": checks,
    }
    if not task["trace"]:
        return out

    nomesh = drive(workload, "no-mesh", seed, count)
    layers = {"workloads.nomesh_rps": nomesh["completed"] / nomesh["norm"]}
    dump, traced_wall, program_s, simcore_s, events = {}, 0.0, 0.0, 0.0, 0
    for arch in ARCHS:
        recorder = Recorder(request_roots=request_roots())
        traced = drive(workload, arch, seed, count, recorder)
        out["attempted"] += traced["offered"]
        out["failed"] += traced["failed"]
        checks[f"traced {arch} digest == untraced"] = (
            traced["digest"] == first[arch]["digest"])
        checks[f"{arch} span self times cover the traced wall"] = abs(
            recorder.self_s() / recorder.wall_s - 1.0) <= 0.02
        layers.update(traced_layers(recorder, arch, traced["completed"]))
        layers[f"simcore.events_per_req.{arch}"] = (
            first[arch]["events"] / first[arch]["completed"])
        traced_wall += traced["wall"]
        program_s += recorder.program_s()
        simcore_s += recorder.self_s("simcore")
        events += recorder.counts["events"]
        dump[arch] = recorder.to_json()
    untraced = sum(statistics.median(run[arch]["wall"] for run in runs)
                   for arch in ARCHS)
    layers.update({"simcore.share": simcore_s / program_s,
                   "simcore.events": events,
                   "trace.overhead": traced_wall / untraced})
    out["layers"] = layers
    _write_trace(workload, {"workload": workload, "seed": seed,
                            "count": count, "meshes": dump})
    return out


# -- exhibits ------------------------------------------------------------------

def exhibit_pass(exhibits, cache_dir) -> dict:
    """Run each exhibit once, serially, through ``run_exhibit``."""
    # Imported before any timing: setup_s measures the import.
    import repro.experiments  # noqa: F401
    from repro.runtime import RunSpec, run_exhibit
    wall, norm, digests, hits = {}, {}, {}, 0
    for exp_id in exhibits:
        gc.collect()
        before = calibrate()
        run = run_exhibit(RunSpec(exp_id, cache_dir=cache_dir))
        wall[exp_id] = run.elapsed_s
        norm[exp_id] = normalized(run.elapsed_s, before, calibrate())
        digests[exp_id] = _digest(run.result.formatted())
        hits += run.cache_hit
    return {"wall": wall, "norm": norm, "digests": digests, "hits": hits}


def traced_pass(workload: str, body) -> dict:
    """Run ``body`` under a recorder; the layer split of its wall time."""
    recorder = Recorder()
    result = recorder.run(body)
    _write_trace(workload, recorder.to_json())
    wall = recorder.wall_s
    return {
        "result": result,
        "wall": wall,
        "accounted": recorder.self_s() / wall,
        "events": recorder.counts["events"],
        "share": {layer: recorder.self_s(layer) / recorder.program_s()
                  for layer in ("simcore", "experiments", "fleet")},
        "fleet_s": recorder.self_s("fleet"),
        "queueing_s": recorder.self_s("fleet.queueing"),
        "cache_key_s": recorder.span_self_s("repro.runtime.cache",
                                           "exhibit_fingerprint"),
        "cache_io_s": (
            recorder.span_self_s("repro.runtime.cache", "ResultCache.load")
            + recorder.span_self_s("repro.runtime.cache",
                                  "ResultCache.store")),
    }


def task_regen(task: dict) -> dict:
    exhibits, cache_dir = task["exhibits"], task["cache_dir"]
    if not task["trace"]:
        return exhibit_pass(exhibits, cache_dir)
    return traced_pass(task["workload"], lambda: [
        exhibit_pass(exhibits, cache_dir), exhibit_pass(exhibits, cache_dir)])


def build_region(seed: int):
    """A fluid-tier region with its fault plan armed, from the public
    fleet API; returns ``(simulator, model)``."""
    from repro.faults import Fault, FaultPlan
    from repro.fleet import (FleetConfig, FleetDemand, FleetFaultEngine,
                             FleetModel)
    from repro.simcore import Simulator
    sim = Simulator(seed=seed)
    model = FleetModel(sim, FleetConfig(azs=4, backends_per_az=160,
                                        services=FLEET_SERVICES, dt_s=5.0,
                                        sample_every=12),
                       FleetDemand(mean_sessions=400.0, session_rps=120.0))
    FleetFaultEngine(sim, model).arm(FaultPlan.of(Fault(
        kind="backend_crash", at=60.0, target="backend:0",
        duration_s=300.0)))
    return sim, model


def fleet_region(seed: int) -> dict:
    """Run one region; only the flow steps are timed, not building it."""
    from repro.faults import InvariantViolation
    sim, model = build_region(seed)
    gc.collect()
    before = calibrate()
    started = _clock()
    model.start(FLEET_HORIZON_S)
    sim.run(until=FLEET_HORIZON_S)
    wall = _clock() - started
    norm = normalized(wall, before, calibrate())
    try:
        model.check_invariants("end of run")
        conserved = True
    except InvariantViolation:
        conserved = False
    counters = model.counters
    return {"wall": wall, "norm": norm, "conserved": conserved,
            "digest": _digest(
                counters.attempted, counters.admitted, counters.rejected,
                counters.disrupted, counters.departed,
                [series.values for series in model.metrics.all_series()])}


def task_fleet(task: dict) -> dict:
    seed = task["seed"]
    out = {"runs": repeat(task, lambda: fleet_region(seed))}
    if task["trace"]:
        out["traced"] = traced_pass(task["workload"],
                                    lambda: fleet_region(seed))
    return out


TASKS = {"setup": task_setup, "traffic": task_traffic, "regen": task_regen,
         "fleet": task_fleet}


def main(argv) -> int:
    task = json.loads(argv[1])
    out = TASKS[task["task"]](task)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
