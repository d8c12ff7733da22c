"""Simcore engine benchmark: events/sec of the heapq event loop.

Plain script (not pytest — ``testpaths`` keeps it out of tier-1)::

    PYTHONPATH=src python benchmarks/bench_simcore.py
    PYTHONPATH=src python benchmarks/bench_simcore.py --quick

Four scenarios, each with a repeat-and-take-best loop:

* ``heavy_traffic`` — the fleet-scale tier (ROADMAP item 1): hundreds
  of thousands of concurrent sessions rescheduling jittered ~1s
  periods, so every push and pop sifts a deep heap.
* ``same_instant_bursts`` — synchronized config-push / AVX-512 crypto
  batch fan-outs: hundreds of events sharing a timestamp, drained in
  ``seq`` order.
* ``timeout_chain`` — one process advancing through timeouts; the
  minimum-agenda case, where per-event loop overhead and the timeout
  slab dominate.
* ``far_future_mix`` — steady traffic plus cert-rotation-style timers
  far past the horizon, which stay pending deep in the heap.

Plus a **warm-start sweep demo**: a steady-state world simulated to a
warm-up horizon once, snapshotted, and forked per sweep point
(``repro.runtime.warmstart``) vs. re-simulating warm-up per point; the
target is >= 3x wall-clock reduction.

Appends to the committed ``BENCH_simcore.json`` perf trajectory (see
``benchlib``); the CI ``perf-gate`` job compares fresh normalized rates
against the latest committed entries and fails on >10% regression.
"""

import argparse
import functools
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import benchlib  # noqa: E402
from repro.runtime import warm_start  # noqa: E402
from repro.simcore import Simulator  # noqa: E402

# ---------------------------------------------------------------------------
# scenario worlds — callback-driven so they are also snapshot-eligible.


class _Session:
    """A mesh session re-arming a jittered periodic timer forever."""

    __slots__ = ("sim", "rng", "period", "fired")

    def __init__(self, sim, rng, period):
        self.sim = sim
        self.rng = rng
        self.period = period
        self.fired = 0
        sim.timeout(rng.random() * period).add_callback(self.fire)

    def fire(self, event):
        self.fired += 1
        delay = self.period * (0.5 + self.rng.random())
        self.sim.timeout(delay).add_callback(self.fire)


def _scn_heavy_traffic(scale):
    nsessions = int(400_000 * scale)
    sim = Simulator(seed=7)
    rng = random.Random(42)
    sessions = [_Session(sim, rng, 1.0) for _ in range(nsessions)]
    started = time.perf_counter()
    sim.run(until=4.0)
    elapsed = time.perf_counter() - started
    return sum(s.fired for s in sessions), elapsed


class _Burst:
    """Config-push fan-out: ``fan`` same-instant events per round."""

    __slots__ = ("sim", "fan", "fired", "rounds")

    def __init__(self, sim, fan, rounds):
        self.sim = sim
        self.fan = fan
        self.fired = 0
        self.rounds = rounds
        self._arm(1.0)

    def _arm(self, when_delay):
        for _ in range(self.fan):
            self.sim.timeout(when_delay).add_callback(self.fire)

    def fire(self, event):
        self.fired += 1
        if self.fired % self.fan == 0 and self.fired < self.rounds * self.fan:
            self._arm(1.0)


def _scn_same_instant_bursts(scale):
    rounds, fan = int(800 * scale), 500
    sim = Simulator(seed=7)
    burst = _Burst(sim, fan, rounds)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return burst.fired, elapsed


def _scn_timeout_chain(scale):
    n = int(400_000 * scale)
    sim = Simulator(seed=7)

    def ticker():
        for _ in range(n):
            yield sim.timeout(1.0)

    sim.process(ticker())
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return sim._sequence, elapsed


def _scn_far_future_mix(scale):
    nsessions = int(50_000 * scale)
    ntimers = int(20_000 * scale)
    sim = Simulator(seed=7)
    rng = random.Random(42)
    sessions = [_Session(sim, rng, 1.0) for _ in range(nsessions)]
    fired_far = []
    for index in range(ntimers):  # cert rotations, daily ops: way out
        sim.timeout(3600.0 + rng.random() * 86_400.0, index).add_callback(
            fired_far.append)
    started = time.perf_counter()
    sim.run(until=10.0)
    elapsed = time.perf_counter() - started
    return sum(s.fired for s in sessions), elapsed


SCENARIOS = {
    "heavy_traffic": _scn_heavy_traffic,
    "same_instant_bursts": _scn_same_instant_bursts,
    "timeout_chain": _scn_timeout_chain,
    "far_future_mix": _scn_far_future_mix,
}


def _rate(scenario, scale):
    events, elapsed = scenario(scale)
    return events / elapsed


#: ``(name, rate_fn, full_scale_arg)`` per gated scenario — the
#: ``bench_runtime.GATE_SCENARIOS`` shape the CI perf gate drives.
GATE_SCENARIOS = tuple(
    (name, functools.partial(_rate, scenario), 1.0)
    for name, scenario in SCENARIOS.items())


def bench_scenarios(quick):
    scale = 0.25 if quick else 1.0
    repeats = 2 if quick else 3
    out = {}
    for name, scenario in SCENARIOS.items():
        best = 0.0
        for _ in range(repeats):
            events, elapsed = scenario(scale)
            best = max(best, events / elapsed)
        out[name] = {"events_per_sec": round(best), "events": events}
        print(f"  {name}: {round(best):,} ev/s")
    return out


# ---------------------------------------------------------------------------
# warm-start sweep demo — warm up once + fork vs re-simulate per point.


_WARM_SESSIONS = 5_000
_WARMUP_S = 60.0
_MEASURE_S = 1.0
_POINTS = list(range(8))


def _build_warm_world():
    sim = Simulator(seed=11)
    rng = random.Random(13)
    sim._sessions = [_Session(sim, rng, 1.0)  # park on the sim: picklable
                     for _ in range(_WARM_SESSIONS)]
    return sim


def _measure_point(sim, point):
    horizon = sim.now + _MEASURE_S
    sim.run(until=horizon)
    return sum(s.fired for s in sim._sessions) + point


def bench_warmstart(quick):
    points = _POINTS[:4] if quick else _POINTS
    warmup = _WARMUP_S / 2 if quick else _WARMUP_S

    started = time.perf_counter()
    cold_results = []
    for point in points:
        sim = _build_warm_world()
        sim.run(until=warmup)
        cold_results.append(_measure_point(sim, point))
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    snapshot = warm_start(_build_warm_world, until=warmup)
    warm_results = snapshot.map(_measure_point, points)
    warm_s = time.perf_counter() - started

    assert warm_results == cold_results, (
        "warm-started sweep diverged from cold sweep")
    speedup = cold_s / warm_s
    print(f"  warmstart_sweep: {cold_s:.2f}s cold, {warm_s:.2f}s warm "
          f"({speedup:.2f}x, variant {snapshot.variant})")
    return {
        "points": len(points),
        "warmup_s": warmup,
        "measure_s": _MEASURE_S,
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "speedup": round(speedup, 2),
        "snapshot_bytes": snapshot.payload_size,
        "variant": snapshot.variant,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts (CI smoke)")
    parser.add_argument("--out", default=None,
                        help="trajectory path (default: repo "
                             "BENCH_simcore.json)")
    parser.add_argument("--no-append", action="store_true",
                        help="print results without rewriting the "
                             "trajectory file")
    options = parser.parse_args(argv)
    root = benchlib.repo_root()
    out_path = options.out or os.path.join(root, "BENCH_simcore.json")

    calib = benchlib.calibrate()
    print(f"calibration: {calib:,.0f} ops/s")
    print("scenarios:")
    scenarios = bench_scenarios(options.quick)
    print("warm-start sweep:")
    warm = bench_warmstart(options.quick)

    sha = benchlib.git_sha(root)
    date = benchlib.utc_date()
    entries = [
        {"git_sha": sha, "date": date, "scenario": name,
         "events_per_sec": result["events_per_sec"],
         "calib_ops_per_sec": round(calib)}
        for name, result in scenarios.items()
    ]
    last_run = {
        "git_sha": sha, "date": date, "quick": options.quick,
        "calib_ops_per_sec": round(calib),
        "scenarios": scenarios, "warmstart": warm,
    }
    if options.no_append or options.quick:
        # Quick rates are not comparable to full-scale baselines; print
        # the report but leave the committed trajectory untouched.
        print(json.dumps(last_run, indent=2, sort_keys=True))
        if options.quick and not options.no_append:
            print("quick run: trajectory not updated")
    else:
        benchlib.append_trajectory(out_path, entries, last_run)
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
