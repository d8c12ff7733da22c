"""Resilience-policy chaos exhibit: containment vs the Fig 8 baseline.

``fig8_resilience`` runs the Fig 8 fault schedule twice per seed over
the production gateway — once unprotected (the ``fig8_recovery``
baseline) and once with :class:`~repro.resilience.ResiliencePolicies`
installed — and measures what the policies buy:

1. **Circuit breaker containing a query-of-death.** Unprotected, the
   poisoned query cascades through every backend of the victim
   service (4 with the default shard shape) and the service goes
   dark. Protected, each crash feeds the service's breaker as
   windowed dispatch failures; the breaker opens mid-cascade, the
   poison query stops being forwarded, and the victim keeps its
   remaining backends — blast radius contained *below* the
   shuffle-shard boundary.
2. **Backoff jitter de-synchronizing the retry storm.** The AZ crash
   disrupts every session in the zone; those clients all reconnect.
   With a synchronized schedule (``jitter=0``) the whole population
   lands in one bucket — the storm that re-crashes survivors. With
   full jitter the same population spreads over the backoff span.
   Measured with :func:`~repro.resilience.retry_storm_arrivals`, the
   O(sessions) aggregate analogue — the same function fleet-tier
   sweeps can call instead of simulating per-session retries.

Both halves are pure functions of (plan, seed): the jitter stream is
derived from the seed (never ``sim.rng``), every spec is a plain
picklable tuple through one ``sweep_map`` dispatcher, and output is
byte-identical at any ``--jobs`` level (``tests/test_equivalence.py``
checks exactly that). The cross-check findings assert the aggregate
analogue (:func:`~repro.resilience.contained_cascade_depth`) agrees
with the simulated cascade, so fleet-tier runs can reuse the cheap
form with a clear conscience.

Tier: testbed (the fluid gateway at production shard shape; the
aggregate analogues above are the fleet-tier reuse surface).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..faults import Fault, FaultEngine, FaultPlan
from ..resilience import (
    QOD_FAILURES_PER_CRASH,
    BreakerConfig,
    ResiliencePolicies,
    contained_cascade_depth,
    retry_storm_arrivals,
)
from ..runtime.sweep import sweep_map
from ..simcore import Simulator
from .base import ExperimentResult, Series, Table
from .cloud_ops import build_production_gateway

__all__ = ["fig8_resilience", "resilience_plan"]

#: Virtual seconds of slack sampled after the last recovery.
_TAIL_S = 10.0

#: Breaker tuning for the chaos runs: with 3 windowed failures per
#: poisoned backend, the second crash reaches min_requests and trips.
_BREAKER = BreakerConfig(window_s=30.0, min_requests=4,
                         failure_threshold=0.5, open_duration_s=30.0,
                         close_after=2)

#: Backoff before the first reconnect in the storm analysis: a
#: synchronized population is one spike 10 s out, and a jittered one
#: spreads over the whole span.
_STORM_BACKOFF_S = 10.0


def resilience_plan() -> FaultPlan:
    """The Fig 8 schedule minus the CA window (gateway faults only).

    Same windows and symbolic targets as :func:`fig8_plan`, so the
    baseline half of this exhibit reproduces ``fig8_recovery``'s
    gateway-level behavior run for run.
    """
    return FaultPlan.of(
        Fault(kind="replica_crash", at=10.0,
              target="service:0/backend:0/replica:0", duration_s=15.0),
        Fault(kind="backend_crash", at=40.0,
              target="service:1/backend:0", duration_s=20.0),
        Fault(kind="az_crash", at=80.0, target="az1", duration_s=30.0),
        Fault(kind="query_of_death", at=130.0, target="service:2",
              duration_s=20.0),
    )


def _chaos_run(seed: int, plan_json: str,
               protected: bool) -> Dict[str, object]:
    """One chaos run → plain picklable samples.

    ``protected`` installs a breaker-bearing policy set on the gateway
    before arming the plan; the unprotected run is the baseline.
    """
    plan = FaultPlan.from_json(json.loads(plan_json))
    sim = Simulator(seed)
    gateway, services = build_production_gateway(
        sim, backends_per_az=6, services=6)
    if protected:
        gateway.install_resilience(ResiliencePolicies(_BREAKER))
    for service in services:
        gateway.set_service_sessions(service.service_id, 12_000)
        gateway.set_service_load(service.service_id, 20_000.0)
    engine = FaultEngine(sim, gateway=gateway)
    engine.arm(plan)

    service_ids = sorted(gateway.service_backends)
    qod_victim = service_ids[2]
    victim_backends = gateway.service_backends[qod_victim]
    horizon = int(plan.horizon() + _TAIL_S)
    availability: List[float] = []
    victim_up: List[int] = []
    victim_down: List[int] = []
    peers_up: List[int] = []

    def sample():
        for _second in range(horizon + 1):
            up = {sid: 0 if gateway.service_outage(sid) else 1
                  for sid in service_ids}
            availability.append(sum(up.values()) / len(service_ids))
            victim_up.append(up[qod_victim])
            victim_down.append(sum(not backend.is_healthy
                                   for backend in victim_backends))
            peers_up.append(min(bit for sid, bit in up.items()
                                if sid != qod_victim))
            yield sim.timeout(1.0)

    sim.process(sample(), name="sampler")
    sim.run(until=horizon + 1.5)

    auditor = engine.auditor
    out: Dict[str, object] = {
        "availability": availability,
        "victim_up": victim_up,
        "peers_up": peers_up,
        # The cascade is the only fault open in the QoD window.
        "qod_backends_crashed": max(_in_window(victim_down,
                                               *_qod_window(plan))),
        "victim_backends": len(victim_backends),
        "checks": auditor.checks_run,
        "violations": len(auditor.violations),
        "disrupted": dict(engine.disrupted),
        "timeline": list(engine.timeline),
    }
    if protected:
        out["policy_stats"] = gateway.resilience.stats()
    return out


def _storm_run(seed: int, sessions: int,
               jitter: float) -> Dict[str, object]:
    """Reconnect-arrival histogram for one jitter setting."""
    buckets = retry_storm_arrivals(sessions, _STORM_BACKOFF_S, jitter,
                                   seed=seed)
    return {"buckets": buckets, "peak": max(buckets) if buckets else 0,
            "total": sum(buckets)}


def _resilience_case(spec: Tuple) -> Dict[str, object]:
    """Sweep dispatcher: one worker fn so one pool call covers both
    halves (chaos runs and storm analyses) in parallel."""
    kind = spec[0]
    if kind == "chaos":
        _, seed, plan_json, protected = spec
        return _chaos_run(seed, plan_json, protected)
    if kind == "storm":
        _, seed, sessions, jitter = spec
        return _storm_run(seed, sessions, jitter)
    raise ValueError(f"unknown resilience case {kind!r}")


def _qod_window(plan: FaultPlan) -> Tuple[float, float]:
    fault = next(f for f in plan.faults
                 if f.kind == "query_of_death")
    return fault.at, fault.at + (fault.duration_s or 0.0)


def _in_window(bits: List[int], lo: float, hi: float) -> List[int]:
    return [bit for second, bit in enumerate(bits) if lo < second < hi]


def fig8_resilience(seed: int = 53,
                    seeds: Optional[List[int]] = None,
                    plan: Optional[FaultPlan] = None) -> ExperimentResult:
    """Breaker containment + retry de-synchronization vs the baseline."""
    result = ExperimentResult(
        "fig8_resilience",
        "Resilience policies under chaos: breaker containment and "
        "retry-storm de-synchronization")
    active_plan = plan if plan is not None else resilience_plan()
    plan_json = active_plan.canonical()
    seed_grid = list(seeds) if seeds else [seed, seed + 1]

    chaos_specs = [("chaos", one_seed, plan_json, protected)
                   for one_seed in seed_grid
                   for protected in (False, True)]
    chaos_runs = sweep_map(_resilience_case, chaos_specs)
    result.faults = [entry for run in chaos_runs for entry in run["timeline"]]
    baselines = chaos_runs[0::2]
    protecteds = chaos_runs[1::2]

    # The storm population is the baseline AZ-crash disruption count —
    # deterministic per seed, so the second sweep stays reproducible.
    storm_sessions = int(baselines[0]["disrupted"].get("az", 0))
    storm_specs = [("storm", one_seed, storm_sessions, jitter)
                   for one_seed in seed_grid
                   for jitter in (0.0, 1.0)]
    storm_runs = sweep_map(_resilience_case, storm_specs)
    synchronized = storm_runs[0::2]
    jittered = storm_runs[1::2]

    # -- series (first seed) -------------------------------------------------
    for label, run in (("baseline", baselines[0]),
                       ("protected", protecteds[0])):
        series = Series(f"availability_{label}", x_label="seconds",
                        y_label="services up / total")
        for second, fraction in enumerate(run["availability"]):
            series.add(second, fraction)
        result.series.append(series)
    for label, run in (("synchronized", synchronized[0]),
                       ("jittered", jittered[0])):
        series = Series(f"retry_arrivals_{label}", x_label="seconds",
                        y_label="reconnects / s")
        for second, count in enumerate(run["buckets"]):
            series.add(second, count)
        result.series.append(series)

    # -- blast radius --------------------------------------------------------
    lo, hi = _qod_window(active_plan)
    radius = Table("Query-of-death blast radius",
                   ["mode", "backends crashed", "victim up in window",
                    "peers up in window"])
    for mode, runs in (("baseline", baselines), ("protected", protecteds)):
        radius.add_row(
            mode,
            max(run["qod_backends_crashed"] for run in runs),
            min(min(_in_window(run["victim_up"], lo, hi)) for run in runs),
            min(min(_in_window(run["peers_up"], lo, hi)) for run in runs))
    result.tables.append(radius)

    transitions = Table(f"Breaker transitions (seed {seed_grid[0]})",
                        ["service", "t", "from", "to", "reason"])
    stats = protecteds[0]["policy_stats"]
    for service_id, breaker in sorted(stats["breakers"].items()):
        for t, from_state, to_state, reason in breaker["transitions"]:
            transitions.add_row(service_id, t, from_state, to_state, reason)
    result.tables.append(transitions)

    # -- findings ------------------------------------------------------------
    result.findings["seeds_run"] = float(len(seed_grid))
    result.findings["qod_backends_crashed_baseline"] = float(
        max(run["qod_backends_crashed"] for run in baselines))
    result.findings["qod_backends_crashed_protected"] = float(
        max(run["qod_backends_crashed"] for run in protecteds))
    result.findings["qod_victim_up_baseline"] = float(
        min(min(_in_window(run["victim_up"], lo, hi))
            for run in baselines))
    result.findings["qod_victim_up_protected"] = float(
        min(min(_in_window(run["victim_up"], lo, hi))
            for run in protecteds))
    result.findings["min_availability_baseline"] = min(
        min(run["availability"]) for run in baselines)
    result.findings["min_availability_protected"] = min(
        min(run["availability"]) for run in protecteds)
    predicted = contained_cascade_depth(
        backends=int(protecteds[0]["victim_backends"]),
        failures_per_backend=QOD_FAILURES_PER_CRASH, config=_BREAKER)
    result.findings["containment_matches_analytic"] = float(
        all(run["qod_backends_crashed"] == predicted
            for run in protecteds))
    result.findings["storm_sessions"] = float(storm_sessions)
    result.findings["storm_peak_synchronized"] = float(
        max(run["peak"] for run in synchronized))
    result.findings["storm_peak_jittered"] = float(
        max(run["peak"] for run in jittered))
    peak_jittered = max(1, max(run["peak"] for run in jittered))
    result.findings["storm_peak_reduction"] = (
        min(run["peak"] for run in synchronized) / peak_jittered)
    result.findings["invariant_checks"] = float(
        sum(run["checks"] for run in chaos_runs))
    result.findings["invariant_violations"] = float(
        sum(run["violations"] for run in chaos_runs))

    result.notes.append(
        "breaker containment: the query-of-death cascade halts once the "
        "victim's breaker opens, so the victim keeps its remaining "
        "shuffle-shard backends instead of going dark")
    result.notes.append(
        "retry de-synchronization: full jitter spreads the post-AZ-crash "
        "reconnect population over the whole backoff span instead of one "
        "synchronized spike")
    result.notes.append(
        f"aggregate analogues (fleet-tier reuse): "
        f"contained_cascade_depth predicts {predicted} crashed backends; "
        f"retry_storm_arrivals prices the storm in O(sessions) without a "
        f"simulator")
    result.notes.append(
        f"invariant auditor: {int(result.findings['invariant_checks'])} "
        f"checks, {int(result.findings['invariant_violations'])} "
        f"violations across {len(chaos_runs)} chaos runs")
    return result
