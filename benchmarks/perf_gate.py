"""CI perf regression gate: fresh runs vs the committed trajectories.

Re-runs the gated benchmark scenarios at full scale with a
repeat-and-take-best loop, normalizes each rate by a same-process
calibration spin loop (see ``benchlib``), and compares against the
latest committed entry per scenario in ``BENCH_simcore.json``,
``BENCH_runtime.json``, ``BENCH_obs.json``, and ``BENCH_fleet.json``.
Exits non-zero if any scenario's normalized rate regressed by more
than the tolerance (default 10%).

::

    PYTHONPATH=src python benchmarks/perf_gate.py
    PYTHONPATH=src python benchmarks/perf_gate.py --inject-slowdown 10

``--inject-slowdown PCT`` scales every measured rate down by PCT
percent before the comparison — CI runs it after the real gate and
asserts the gate *fails*, proving the gate can actually catch a
regression of that size.

Normalization makes the gate portable across runners: a slower machine
scores lower on both the scenario and the calibration loop, so the
ratio moves far less than raw events/sec. Residual noise is damped by
take-best (the max over repeats estimates the machine's true ceiling
better than the mean under CI noisy neighbors).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import bench_fleet  # noqa: E402
import bench_obs  # noqa: E402
import bench_runtime  # noqa: E402
import bench_simcore  # noqa: E402
import benchlib  # noqa: E402

#: Allowed normalized-rate regression before the gate fails.
TOLERANCE = 0.10


def gate_checks(repeats):
    """Yield ``(scenario, fresh_events_per_sec)`` for every gated
    scenario with a committed baseline."""
    root = benchlib.repo_root()
    # Every bench module exposes the same (name, rate_fn, full_scale_arg)
    # GATE_SCENARIOS shape.
    for module, trajectory in ((bench_simcore, "BENCH_simcore.json"),
                               (bench_runtime, "BENCH_runtime.json"),
                               (bench_obs, "BENCH_obs.json"),
                               (bench_fleet, "BENCH_fleet.json")):
        baselines = benchlib.baseline_rates(os.path.join(root, trajectory))
        for name, fn, full_n in module.GATE_SCENARIOS:
            baseline = baselines.get(name)
            if baseline is None:
                print(f"  {name}: no committed baseline, skipped")
                continue
            best = max(fn(full_n) for _ in range(repeats))
            yield name, best, baseline


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="take-best repeats per scenario")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional regression")
    parser.add_argument("--inject-slowdown", type=float, default=0.0,
                        metavar="PCT",
                        help="scale measured rates down by PCT%% "
                             "(gate self-test: the gate must fail)")
    options = parser.parse_args(argv)
    factor = 1.0 - options.inject_slowdown / 100.0

    calib = benchlib.calibrate()
    print(f"calibration: {calib:,.0f} ops/s")
    if options.inject_slowdown:
        print(f"injecting {options.inject_slowdown:.0f}% slowdown "
              f"(gate self-test)")

    failures = []
    compared = 0
    for name, rate, baseline in gate_checks(options.repeats):
        normalized = rate * factor / calib
        ratio = normalized / baseline
        compared += 1
        verdict = "ok" if ratio >= 1.0 - options.tolerance else "REGRESSION"
        print(f"  {name}: {rate * factor:,.0f} ev/s, "
              f"{ratio:.2f}x of baseline — {verdict}")
        if verdict != "ok":
            failures.append(name)

    if not compared:
        print("perf-gate: no committed baselines found — nothing gated")
        return 0
    if failures:
        print(f"perf-gate: FAIL — normalized regression > "
              f"{options.tolerance:.0%} in: {', '.join(failures)}")
        return 1
    print(f"perf-gate: ok ({compared} scenarios within "
          f"{options.tolerance:.0%} of committed baselines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
