"""End-to-end benchmark: what a user of the simulator waits on.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
                                  [--seconds S] [--trace [0|1]]

Each workload runs in fresh interpreters (``child.py``), one at a time,
so at most two processes are alive: this runner and one child. The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}

``--trace 0`` prints the end-to-end metrics (:data:`END_TO_END`),
``--trace 1`` the per-layer ones (:data:`PER_LAYER`), which come from
one extra traced pass per workload. A failed correctness check counts
in ``failed``, is named on standard error, and makes the exit code 1.
See README.md for the catalogue and how to read ``out/trace-*.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("datapath", "shortflow", "testbed_regen", "fleet")
ARCHS = ("istio", "ambient", "canal")

#: Requests (datapath) or flows (shortflow) offered to each mesh per
#: repeat, about 0.2 s of work each; the meshes are interleaved inside
#: every repeat, and repeats continue until ``--seconds`` pass.
TRAFFIC_COUNT = {"datapath": 4_000, "shortflow": 1_000}
MIN_REPEATS = 3

#: The testbed exhibits ``testbed_regen`` regenerates, in registry
#: order: every testbed exhibit that takes under 1.5 s. The other nine
#: (fig27_28, fig11, table1, fig14, ablation_incremental, case_vpn,
#: fig4, fig2, fig12) take about 70 s together, too long to repeat in a
#: run; repeating short exhibits is what keeps the median steady on a
#: shared host.
REGEN_EXHIBITS = (
    "fig3", "fig5", "table2", "table3", "fig8_recovery",
    "fig8_resilience", "fig10", "fig13", "fig15", "fig16",
    "fig17", "table4", "fig18", "fig19", "fig20", "table5", "table6",
    "table7", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26",
    "fig29_30", "trace_breakdown", "ablation_sharding", "ablation_peaks",
    "ablation_chain", "ablation_health", "ablation_nagle",
    "ablation_scaling", "ablation_tunnels", "case1", "case2", "case3",
    "case_phase", "sensitivity", "lb_latency",
)
#: Exhibits whose cold seconds are reported on their own.
REGEN_HEAVIEST = ("sensitivity", "fig13", "fig23", "case2", "fig5", "fig20")
#: Cheap stand-ins for ``--scale`` below 1 (smoke runs only).
SMOKE_EXHIBITS = ("fig3", "table2", "fig17")
WARM_CHILDREN = 5
#: Cold passes start until this share of ``--seconds`` has passed.
COLD_SHARE = 0.8

SETUP_CHILDREN = 5

END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = tuple(
    [(f"{arch}_rps", "1/s") for arch in ARCHS]
    + [(f"{layer}.{what}.{arch}", unit)
       for layer, what, unit in (
           ("simcore", "us_per_req", "us"),
           ("simcore", "events_per_req", "count"),
           ("simcore", "processes_per_req", "count"),
           ("workloads", "us_per_req", "us"),
           ("mesh", "us_per_req", "us"),
           ("mesh", "proxy_work_per_req", "count"),
           ("crypto", "us_per_req", "us"),
           ("crypto", "asym_ops_per_req", "count"),
           ("obs", "calls_per_req", "count"))
       for arch in ARCHS]
    + [("core.us_per_req.canal", "us"),
       ("core.gateway.us_per_req.canal", "us"),
       ("core.onnode.us_per_req.canal", "us"),
       ("core.key_server.us_per_req.canal", "us"),
       ("core.gateway.calls_per_req.canal", "count"),
       ("workloads.nomesh_rps", "1/s"),
       ("simcore.share", "ratio"),
       ("simcore.events", "count"),
       ("fleet.self_s", "s"),
       ("fleet.share", "ratio"),
       ("fleet.queueing.self_s", "s"),
       ("runtime.cache_key_s", "s"),
       ("runtime.cache_io_s", "s"),
       ("runtime.cache_hit_ratio", "ratio"),
       ("runtime.warm_regen_s", "s")]
    + [(f"experiments.{exp_id}_s", "s") for exp_id in REGEN_HEAVIEST]
    + [("experiments.share", "ratio"),
       ("trace.overhead", "ratio")]
)


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero or printed no result."""


def clock() -> float:
    return time.perf_counter()  # simlint: ignore[DET001] benchmark clock


def spawn(task: dict) -> dict:
    """Run one child task to completion and return its JSON result."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One hash seed for every child: set and dict layouts, and so the
    # interpreter's work, repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, CHILD, json.dumps(task)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=170, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {task['task']!r} exited "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of fresh children, after one discarded one
    (the first child also pays for writing bytecode caches)."""
    task = {"task": "setup", "workload": workload, "seed": seed}
    spawn(task)
    return statistics.median(spawn(task)["norm"]
                             for _ in range(SETUP_CHILDREN))


def exhibit_seconds(passes, exhibits) -> dict:
    """Per exhibit, the median over passes of its normalized seconds."""
    return {exp_id: statistics.median(p["norm"][exp_id] for p in passes)
            for exp_id in exhibits}


# -- workloads ------------------------------------------------------------------
# Each returns (work seconds, peak RSS MB, per-layer values, attempted,
# failed, {check: passed}).

def run_traffic(workload: str, args) -> tuple:
    count = max(1, round(TRAFFIC_COUNT[workload] * args.scale))
    out = spawn({"task": "traffic", "workload": workload, "seed": args.seed,
                 "count": count, "seconds": args.seconds,
                 "min_repeats": MIN_REPEATS, "trace": args.trace})
    layers = dict(out.get("layers", {}))
    for arch in ARCHS:
        layers[f"{arch}_rps"] = out["rps"][arch]
    return (out["work_s"], out["peak_rss_mb"], layers, out["attempted"],
            out["failed"], out["checks"])


def run_regen(workload: str, args) -> tuple:
    exhibits = list(REGEN_EXHIBITS if args.scale >= 1 else SMOKE_EXHIBITS)
    scratch = os.path.join(OUT, f"cache-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    task = {"task": "regen", "workload": workload, "exhibits": exhibits,
            "trace": 0}
    try:
        cold, started = [], clock()
        while not cold or clock() - started < COLD_SHARE * args.seconds:
            cold.append(spawn(dict(task, cache_dir=os.path.join(
                scratch, f"cold-{len(cold)}"))))
        filled = os.path.join(scratch, "cold-0")
        warm = [spawn(dict(task, cache_dir=filled))
                for _ in range(WARM_CHILDREN)]
        traced = (spawn(dict(task, trace=1,
                             cache_dir=os.path.join(scratch, "traced")))
                  if args.trace else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    reference = cold[0]["digests"]
    checks = {
        "cold passes miss the cache": all(p["hits"] == 0 for p in cold),
        "warm passes hit the cache for every exhibit":
            all(p["hits"] == len(exhibits) for p in warm),
        "every pass gives the cold result text":
            all(p["digests"] == reference for p in cold + warm),
    }
    passes = cold + warm
    cold_s = exhibit_seconds(cold, exhibits)
    layers = {
        "runtime.warm_regen_s": sum(exhibit_seconds(warm, exhibits).values()),
        "runtime.cache_hit_ratio":
            sum(p["hits"] for p in warm) / (len(warm) * len(exhibits)),
    }
    for exp_id in REGEN_HEAVIEST:
        if exp_id in exhibits:
            layers[f"experiments.{exp_id}_s"] = cold_s[exp_id]
    if traced is not None:
        traced_cold, traced_warm = traced["result"]
        passes += [traced_cold, traced_warm]
        checks["traced passes give the untraced result text"] = (
            traced_cold["digests"] == reference
            and traced_warm["digests"] == reference)
        checks["span self times cover the traced wall"] = (
            abs(traced["accounted"] - 1.0) <= 0.02)
        layers.update(_traced_layers(traced))
        layers["trace.overhead"] = (
            sum(traced_cold["wall"].values())
            / statistics.median(sum(p["wall"].values()) for p in cold))
    failed = sum(p["digests"][exp_id] != reference[exp_id]
                 for p in passes for exp_id in exhibits)
    return (sum(cold_s.values()),
            max(p["peak_rss_mb"] for p in cold + warm), layers,
            len(passes) * len(exhibits), failed, checks)


def run_fleet(workload: str, args) -> tuple:
    out = spawn({"task": "fleet", "workload": workload, "seed": args.seed,
                 "seconds": args.seconds, "min_repeats": MIN_REPEATS,
                 "trace": args.trace})
    runs = out["runs"]
    first = runs[0]["digest"]
    checks = {
        "sessions are conserved": all(run["conserved"] for run in runs),
        "same-seed repeats give one digest":
            all(run["digest"] == first for run in runs),
    }
    layers = {}
    if "traced" in out:
        traced = out["traced"]
        runs = runs + [traced["result"]]
        checks["traced pass gives the untraced digest"] = (
            traced["result"]["digest"] == first)
        checks["span self times cover the traced wall"] = (
            abs(traced["accounted"] - 1.0) <= 0.02)
        layers.update(_traced_layers(traced))
        layers["trace.overhead"] = traced["result"]["wall"] / \
            statistics.median(run["wall"] for run in out["runs"])
    failed = sum(run["digest"] != first or not run["conserved"]
                 for run in runs)
    return (statistics.median(run["norm"] for run in out["runs"]),
            out["peak_rss_mb"], layers, len(runs), failed, checks)


def _traced_layers(traced: dict) -> dict:
    """Per-layer values from the testbed_regen and fleet traced passes."""
    return {
        "simcore.share": traced["share"]["simcore"],
        "simcore.events": traced["events"],
        "experiments.share": traced["share"]["experiments"],
        "fleet.share": traced["share"]["fleet"],
        "fleet.self_s": traced["fleet_s"],
        "fleet.queueing.self_s": traced["queueing_s"],
        "runtime.cache_key_s": traced["cache_key_s"],
        "runtime.cache_io_s": traced["cache_io_s"],
    }


RUNNERS = {"datapath": run_traffic, "shortflow": run_traffic,
           "testbed_regen": run_regen, "fleet": run_fleet}


def run_workload(workload: str, args) -> dict:
    setup = setup_seconds(workload, args.seed)
    work, rss, layers, attempted, failed, checks = RUNNERS[workload](
        workload, args)
    for name, passed in sorted(checks.items()):
        if not passed:
            print(f"{workload}: check failed: {name}", file=sys.stderr)
    failed += sum(not passed for passed in checks.values())
    if args.trace:
        names = PER_LAYER
        unknown = sorted(set(layers) - {name for name, _unit in names})
        if unknown:
            raise KeyError(f"unknown per-layer metrics: {unknown}")
        values = {name: layers.get(name, 0.0) for name, _unit in names}
    else:
        names = END_TO_END
        values = {"setup_s": setup, "work_s": work, "peak_rss_mb": rss}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="print per-layer metrics from a traced pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the work, for smoke tests (0 < scale "
                             "<= 1)")
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        result = run_workload(workload, args)
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
