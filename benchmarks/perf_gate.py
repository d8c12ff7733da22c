"""CI perf regression gate: fresh runs vs the committed trajectories.

Re-runs the gated benchmark scenarios at full scale with a
repeat-and-take-best loop, normalizes each rate by a same-process
calibration spin loop (see ``benchlib``), and compares against the
latest committed entry per scenario in ``BENCH_simcore.json``,
``BENCH_runtime.json``, ``BENCH_obs.json``, and ``BENCH_fleet.json``.
Exits non-zero if any scenario's normalized rate regressed by more
than the tolerance (default 10%), or if a gated scenario has no
committed baseline at all.

::

    PYTHONPATH=src python benchmarks/perf_gate.py

``tests/test_perf_gate.py`` checks :func:`verdict` against the
committed baselines: a rate at 0.89x of its baseline must fail, 1.0x
must pass.

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


def verdict(normalized, baseline, tolerance=TOLERANCE):
    """``"ok"`` or ``"REGRESSION"`` for one calibration-normalized rate."""
    return "ok" if normalized / baseline >= 1.0 - tolerance \
        else "REGRESSION"


def gated_scenarios():
    """``(name, rate_fn, full_scale_arg, committed baseline)`` for every
    gated scenario of every bench module. ``baseline`` is ``None`` when
    no committed entry matches the name: the gate fails on it rather
    than silently skipping a renamed scenario."""
    root = benchlib.repo_root()
    # Every bench module exposes the same (name, rate_fn, full_scale_arg)
    # GATE_SCENARIOS shape.
    for module, trajectory in ((bench_simcore, "BENCH_simcore.json"),
                               (bench_runtime, "BENCH_runtime.json"),
                               (bench_obs, "BENCH_obs.json"),
                               (bench_fleet, "BENCH_fleet.json")):
        baselines = benchlib.baseline_rates(os.path.join(root, trajectory))
        for name, fn, full_n in module.GATE_SCENARIOS:
            yield name, fn, full_n, baselines.get(name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="take-best repeats per scenario")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional regression")
    options = parser.parse_args(argv)

    calib = benchlib.calibrate()
    print(f"calibration: {calib:,.0f} ops/s")

    failures, missing = [], []
    compared = 0
    for name, fn, full_n, baseline in gated_scenarios():
        if baseline is None:
            print(f"  {name}: no committed baseline — MISSING")
            missing.append(name)
            continue
        rate = max(fn(full_n) for _ in range(options.repeats))
        normalized = rate / calib
        outcome = verdict(normalized, baseline, options.tolerance)
        compared += 1
        print(f"  {name}: {rate:,.0f} ev/s, "
              f"{normalized / baseline:.2f}x of baseline — {outcome}")
        if outcome != "ok":
            failures.append(name)

    if missing:
        print(f"perf-gate: FAIL — no committed baseline for: "
              f"{', '.join(missing)}")
    if failures:
        print(f"perf-gate: FAIL — normalized regression > "
              f"{options.tolerance:.0%} in: {', '.join(failures)}")
    if missing or failures:
        return 1
    print(f"perf-gate: ok ({compared} scenarios within "
          f"{options.tolerance:.0%} of committed baselines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
