"""CI perf gate: the end-to-end benchmark against its committed trajectory.

::

    python benchmarks/perf_gate.py            # gate; exit 1 on a regression
    python benchmarks/perf_gate.py --record   # append a fresh entry per workload

The gate runs ``benchmarks/e2e/run.py --workload all`` once and compares
each workload's end-to-end metrics (``setup_s``, ``work_s``,
``peak_rss_mb``) with the latest entry for that workload in the
committed ``BENCH_e2e.json``. The bounds are the ones ``BENCHMARK.json``
declares: a metric fails when it is worse than the committed value by
more than its bound. One run on a shared host can cross a bound by
noise alone, so a workload that fails is run once more and judged on
each metric's better value of the two. A failed correctness check, or a
workload with no committed entry, fails the gate too.

For each failing workload the gate runs one traced pass (``--trace 1
--workload <name>``) and splits the traced time by top-level layer:
span self seconds from ``benchmarks/e2e/out/trace-<name>.json``, each
layer's sum divided by the traced wall time minus the benchmark's own
(``harness``) code. It prints every layer's share against the committed
entry's, the layer whose share rose most first: that is the layer that
got slower.

``--record`` runs every workload untraced, then each one traced, and
appends one ``{git_sha, date, workload, metrics, shares}`` entry per
workload. ``tests/test_perf_gate.py`` checks the committed entries and
the verdict without running the benchmark.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "e2e", "run.py")
TRACES = os.path.join(HERE, "e2e", "out")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
TRAJECTORY = os.path.join(ROOT, "BENCH_e2e.json")


def contract():
    """``(workload names, end-to-end metric specs)`` from BENCHMARK.json."""
    with open(CONTRACT) as handle:
        spec = json.load(handle)
    return [w["name"] for w in spec["workloads"]], spec["end_to_end"]


def load_entries(path: str = TRAJECTORY) -> list:
    try:
        with open(path) as handle:
            return json.load(handle)["entries"]
    except FileNotFoundError:
        return []


def latest_entries(path: str = TRAJECTORY) -> dict:
    """The latest committed entry per workload."""
    return {entry["workload"]: entry for entry in load_entries(path)}


def worse_ratio(value: float, committed: float, metric: dict) -> float:
    """How many times worse ``value`` is than ``committed`` (1.0: same)."""
    if metric["better"] == "lower":
        return value / committed
    return committed / value


def regressed(value: float, committed: float, metric: dict) -> bool:
    return worse_ratio(value, committed, metric) > 1.0 + metric["bound"]


def layer_shares(trace: dict) -> dict:
    """Share of a traced pass's program time per top-level layer.

    ``trace`` is one ``trace-<workload>.json`` dump: a single recording,
    or one per mesh under ``"meshes"`` (datapath, shortflow), which are
    summed. Program time is the traced wall minus ``harness`` self time.
    Layers that round to a zero share are left out.
    """
    recordings = list(trace["meshes"].values()) if "meshes" in trace \
        else [trace]
    self_s, wall_s = {}, 0.0
    for recording in recordings:
        wall_s += recording["wall_s"]
        for span in recording["spans"]:
            layer = span["layer"].split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + span["self_s"]
    program_s = wall_s - self_s.pop("harness", 0.0)
    shares = {layer: round(seconds / program_s, 4)
              for layer, seconds in sorted(self_s.items())}
    return {layer: share for layer, share in shares.items() if share}


def share_moves(shares: dict, committed: dict) -> list:
    """``[(layer, share - committed share)]``, the layer whose share
    rose most first."""
    layers = sorted(set(shares) | set(committed))
    return sorted(((layer, shares.get(layer, 0.0) - committed.get(layer, 0.0))
                   for layer in layers), key=lambda move: -move[1])


def run_e2e(*args) -> list:
    """Run the end-to-end benchmark; its JSON result lines, in order."""
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=False)
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def traced_shares(workload: str) -> dict:
    """Layer shares from one fresh traced pass of ``workload``."""
    path = os.path.join(TRACES, f"trace-{workload}.json")
    if os.path.exists(path):
        os.remove(path)
    run_e2e("--trace", "1", "--workload", workload)
    with open(path) as handle:
        return layer_shares(json.load(handle))


def git_sha() -> str:
    """Short commit sha, suffixed ``-dirty`` for uncommitted changes."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*"],
            cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def untraced_results(workloads) -> list:
    """One ``--workload all`` run, checked to cover every workload."""
    results = run_e2e("--workload", "all")
    if len(results) != len(workloads):
        raise SystemExit(f"perf-gate: FAIL — the benchmark printed "
                         f"{len(results)} results for {len(workloads)} "
                         f"workloads")
    return results


def record(workloads) -> int:
    results = untraced_results(workloads)
    broken = [w for w, r in zip(workloads, results) if not r["correct"]]
    if broken:
        print(f"not recorded: failed checks in {', '.join(broken)}")
        return 1
    stamp = {"git_sha": git_sha(),
             "date": time.strftime("%Y-%m-%d", time.gmtime())}
    entries = load_entries()
    for workload, result in zip(workloads, results):
        entries.append(dict(
            stamp, workload=workload,
            metrics={name: metric["value"]
                     for name, metric in result["metrics"].items()},
            shares=traced_shares(workload)))
        print(f"{workload}: {json.dumps(entries[-1], sort_keys=True)}")
    with open(TRAJECTORY, "w") as handle:
        json.dump({"entries": entries}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"appended {len(workloads)} entries to {TRAJECTORY}")
    return 0


def check(result: dict, entry: dict, metrics) -> tuple:
    """``(ratio cells, failures)`` of one workload result vs its entry."""
    cells, worse = [], []
    for metric in metrics:
        name = metric["name"]
        value = result["metrics"][name]["value"]
        ratio = worse_ratio(value, entry["metrics"][name], metric)
        cells.append(f"{name} {ratio:.3f}x")
        if regressed(value, entry["metrics"][name], metric):
            worse.append(f"{name} {ratio:.3f}x > "
                         f"{1.0 + metric['bound']:.2f}x")
    if not result["correct"]:
        worse.append(f"{result['failed']} failed checks")
    return cells, worse


def best_of(first: dict, second: dict, metrics) -> dict:
    """Each metric's better value over two runs of one workload."""
    best = dict(first, metrics=dict(first["metrics"]))
    for metric in metrics:
        pick = min if metric["better"] == "lower" else max
        best["metrics"][metric["name"]] = pick(
            (first["metrics"][metric["name"]],
             second["metrics"][metric["name"]]),
            key=lambda cell: cell["value"])
    return best


def gate(workloads, metrics) -> int:
    committed = latest_entries()
    failed = []
    for workload, result in zip(workloads, untraced_results(workloads)):
        entry = committed.get(workload)
        if entry is None:
            print(f"{workload}: no committed entry in BENCH_e2e.json — FAIL")
            failed.append(workload)
            continue
        cells, worse = check(result, entry, metrics)
        if worse and result["correct"]:
            # One run on a shared host can cross a bound by noise alone,
            # so a regression has to show in the better of two runs.
            print(f"{workload}: {', '.join(cells)} of committed — "
                  f"confirming with a second run")
            rerun = run_e2e("--workload", workload)
            if rerun:
                result = best_of(result, rerun[0], metrics)
                cells, worse = check(result, entry, metrics)
        verdict = "REGRESSION: " + "; ".join(worse) if worse else "ok"
        print(f"{workload}: {', '.join(cells)} of committed — {verdict}")
        if worse:
            failed.append(workload)

    for workload in failed:
        if workload not in committed:
            continue
        shares = traced_shares(workload)
        before = committed[workload]["shares"]
        print(f"{workload}: share of traced time per layer, committed -> "
              f"now, rose most first:")
        for layer, move in share_moves(shares, before):
            print(f"  {layer:<12} {before.get(layer, 0.0):.3f} -> "
                  f"{shares.get(layer, 0.0):.3f} ({move:+.3f})")
    if failed:
        print(f"perf-gate: FAIL — {', '.join(failed)}")
        return 1
    print(f"perf-gate: ok ({len(workloads)} workloads within the "
          f"BENCHMARK.json bounds of BENCH_e2e.json)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="append a fresh entry per workload to "
                             "BENCH_e2e.json instead of gating")
    options = parser.parse_args(argv)
    workloads, metrics = contract()
    if options.record:
        return record(workloads)
    return gate(workloads, metrics)


if __name__ == "__main__":
    sys.exit(main())
