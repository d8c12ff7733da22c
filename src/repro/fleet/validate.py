"""Validation harness: the fluid tier against its per-session twin.

The fleet tier earns the right to claim O(1M)-session results by
agreeing with the discrete per-session reference at scales where both
are affordable (~200 replicas / ~20k concurrent sessions). Each
:class:`ValidationScenario` runs **both** models on identical topology,
demand, fault plan, and seed, then compares trajectory summaries —
overall availability, steady-window session population, the latency
proxies, fault-disrupted totals — against declared tolerances. The
tolerances are not hand-waves: the reference is stochastic, so each
bound is set a few multiples above the Poisson noise floor at the
scenario's population (sqrt(20k)/20k ~ 0.7% relative), and the suite
includes a deliberately mis-parameterized fluid model test proving the
gate actually trips (``tests/test_fleet_validate.py``).

``python -m repro.fleet.validate`` runs the default scenario set and
exits nonzero on any tolerance violation — the CI ``fleet-smoke`` job
runs exactly this.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults.plan import Fault, FaultPlan
from ..simcore import Simulator
from .config import FleetConfig, FleetDemand
from .faults import FleetFaultEngine
from .model import FleetModel
from .reference import SessionDES

__all__ = [
    "Tolerances",
    "ValidationScenario",
    "MetricCheck",
    "ValidationReport",
    "check_tiers",
    "compare_tiers",
    "run_tier",
    "run_validation",
    "DEFAULT_SCENARIOS",
]


@dataclass(frozen=True)
class Tolerances:
    """Acceptable fluid-vs-reference disagreement per metric.

    Relative bounds are set ~5x the reference's own Poisson noise
    floor at 20k sessions (0.7%), so they fail on modeling errors, not
    on unlucky seeds; absolute availability allows one lost percentage
    point, far above the noise of ~1M admission events per scenario.
    The p99 bound is wider than the mean's: the fluid tier has *zero*
    cross-backend dispersion by construction, so it systematically
    underestimates the finite-N reference's queueing tail near the
    M/M/c knee — ~11x the reference's per-backend occupancy CV
    propagates into the tail via the Sakasegawa exponent.
    """

    availability_abs: float = 0.01
    sessions_rel: float = 0.05
    latency_mean_rel: float = 0.10
    latency_p99_rel: float = 0.35
    disrupted_rel: float = 0.15
    conservation_rel: float = 1e-6


@dataclass(frozen=True)
class ValidationScenario:
    """One overlapping-scale workload both tiers can afford."""

    name: str
    azs: int = 3
    backends_per_az: int = 34
    services: int = 25
    mean_sessions: float = 3200.0
    amplitude: float = 0.0
    period_s: float = 3600.0
    session_duration_s: float = 600.0
    #: Heavy sessions so the mid-scale fleet runs at meaningful water
    #: (~0.35 mean): an idle fleet would make the latency-agreement
    #: checks vacuously true at the pure-service-time floor. The split
    #: (many light sessions rather than few heavy ones) keeps the
    #: reference's per-backend occupancy CV under ~4%, which the tail
    #: tolerance budget above assumes.
    session_rps: float = 37.5
    horizon_s: float = 1800.0
    dt_s: float = 1.0
    sample_every: int = 10
    seed: int = 7
    plan: Optional[FaultPlan] = None
    tolerances: Tolerances = field(default_factory=Tolerances)

    def config(self) -> FleetConfig:
        return FleetConfig(azs=self.azs, backends_per_az=self.backends_per_az,
                           services=self.services, dt_s=self.dt_s,
                           sample_every=self.sample_every)

    def demand(self) -> FleetDemand:
        return FleetDemand(mean_sessions=self.mean_sessions,
                           amplitude=self.amplitude, period_s=self.period_s,
                           session_duration_s=self.session_duration_s,
                           session_rps=self.session_rps)


@dataclass
class MetricCheck:
    """One compared metric and its verdict."""

    metric: str
    fluid: float
    reference: float
    delta: float          # abs or relative, per `mode`
    tolerance: float
    mode: str             # "abs" | "rel"
    ok: bool


@dataclass
class ValidationReport:
    scenario: str
    checks: List[MetricCheck]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_json(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "checks": [vars(check) for check in self.checks],
        }


#: Overrides that deliberately mis-parameterize the *fluid* model only
#: (the reference stays truthful). Used by tests to prove the gate has
#: teeth: a fluid model whose arrival rate or session lifetime is off
#: by 2x must fail validation.
_FLUID_OVERRIDE_KEYS = ("arrival_rate_factor", "session_duration_factor")


def run_tier(scenario: ValidationScenario, tier: str,
             fluid_overrides: Optional[Dict[str, float]] = None
             ) -> Dict[str, float]:
    """Run one tier (``"fluid"`` or the ``"sessions"`` reference) on a
    scenario and summarize the metrics :func:`check_tiers` compares."""
    sim = Simulator(seed=scenario.seed)
    config = scenario.config()
    demand = scenario.demand()
    if tier == "fluid":
        model: FleetModel = FleetModel(sim, config, demand)
        if fluid_overrides:
            _apply_overrides(model, fluid_overrides)
    elif tier == "sessions":
        model = SessionDES(sim, config, demand)
    else:
        raise ValueError(f"unknown tier {tier!r}")
    if scenario.plan is not None:
        FleetFaultEngine(sim, model).arm(scenario.plan)
    model.start(scenario.horizon_s)
    sim.run(until=scenario.horizon_s)
    return _summarize(model, scenario)


def _apply_overrides(model: FleetModel,
                     overrides: Dict[str, float]) -> None:
    for key in overrides:
        if key not in _FLUID_OVERRIDE_KEYS:
            raise ValueError(f"unknown fluid override {key!r}; known: "
                             + ", ".join(_FLUID_OVERRIDE_KEYS))
    factor = overrides.get("arrival_rate_factor")
    if factor is not None:
        model.demand_scale = _ConstantScale(factor)
    duration_factor = overrides.get("session_duration_factor")
    if duration_factor is not None:
        model._theta = model.demand.session_duration_s * duration_factor
        model._decay = math.exp(-model.config.dt_s / model._theta)


class _ConstantScale:
    """Picklable constant demand multiplier (a lambda would not be)."""

    def __init__(self, factor: float):
        self.factor = factor

    def __call__(self, service: int, t: float) -> float:
        return self.factor


def _summarize(model: FleetModel,
               scenario: ValidationScenario) -> Dict[str, float]:
    metrics = model.metrics
    counters = model.counters
    half = scenario.horizon_s / 2.0
    steady = [v for t, v in zip(metrics.active_sessions.times,
                                metrics.active_sessions.values) if t >= half]
    lat_mean = [v for t, v in zip(metrics.latency_mean_ms.times,
                                  metrics.latency_mean_ms.values) if t >= half]
    lat_p99 = [v for t, v in zip(metrics.latency_p99_ms.times,
                                 metrics.latency_p99_ms.values) if t >= half]
    active = model.active_sessions()
    residual = counters.admitted - (
        active + counters.departed + counters.disrupted)
    return {
        "availability": model.overall_availability(),
        "steady_sessions": _mean(steady),
        "latency_mean_ms": _mean(lat_mean),
        "latency_p99_ms": _mean(lat_p99),
        "disrupted": counters.disrupted,
        "admitted": counters.admitted,
        "conservation_residual_rel": (
            abs(residual) / max(1.0, counters.admitted)),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def compare_tiers(scenario: ValidationScenario,
                  fluid_overrides: Optional[Dict[str, float]] = None
                  ) -> ValidationReport:
    """Run both tiers on one scenario and check every tolerance."""
    return check_tiers(scenario,
                       run_tier(scenario, "fluid", fluid_overrides),
                       run_tier(scenario, "sessions"))


def check_tiers(scenario: ValidationScenario, fluid: Dict[str, float],
                reference: Dict[str, float]) -> ValidationReport:
    """Check two :func:`run_tier` summaries of one scenario against its
    tolerances."""
    tol = scenario.tolerances
    checks = [
        _abs_check("availability", fluid, reference, tol.availability_abs),
        _rel_check("steady_sessions", fluid, reference, tol.sessions_rel),
        _rel_check("latency_mean_ms", fluid, reference, tol.latency_mean_rel),
        _rel_check("latency_p99_ms", fluid, reference, tol.latency_p99_rel),
    ]
    if scenario.plan is not None:
        checks.append(_rel_check("disrupted", fluid, reference,
                                 tol.disrupted_rel))
    for tier_name, summary in (("fluid", fluid), ("reference", reference)):
        residual = summary["conservation_residual_rel"]
        checks.append(MetricCheck(
            metric=f"conservation_{tier_name}", fluid=residual,
            reference=0.0, delta=residual, tolerance=tol.conservation_rel,
            mode="abs", ok=residual <= tol.conservation_rel))
    return ValidationReport(scenario=scenario.name, checks=checks)


def _abs_check(metric: str, fluid: Dict[str, float],
               reference: Dict[str, float], tolerance: float) -> MetricCheck:
    delta = abs(fluid[metric] - reference[metric])
    return MetricCheck(metric=metric, fluid=fluid[metric],
                       reference=reference[metric], delta=delta,
                       tolerance=tolerance, mode="abs",
                       ok=delta <= tolerance)


def _rel_check(metric: str, fluid: Dict[str, float],
               reference: Dict[str, float], tolerance: float) -> MetricCheck:
    base = max(abs(reference[metric]), 1e-9)
    delta = abs(fluid[metric] - reference[metric]) / base
    return MetricCheck(metric=metric, fluid=fluid[metric],
                       reference=reference[metric], delta=delta,
                       tolerance=tolerance, mode="rel",
                       ok=delta <= tolerance)


def _chaos_plan() -> FaultPlan:
    """AZ loss + backend crash + query-of-death, all with recoveries."""
    return FaultPlan.of(
        Fault(kind="az_crash", at=600.0, target="az:1", duration_s=300.0),
        Fault(kind="backend_crash", at=1200.0, target="backend:3",
              duration_s=200.0),
        Fault(kind="query_of_death", at=1500.0, target="service:2",
              duration_s=150.0, param=3.0),
    )


#: >= 3 overlapping-scale scenarios, one of them chaos (issue floor).
DEFAULT_SCENARIOS: Tuple[ValidationScenario, ...] = (
    # 3 AZ x 34 backends x 2 replicas = 204 replicas; 25 x 3200 = 80k
    # concurrent sessions — affordable for the per-session twin.
    ValidationScenario(name="steady_midscale"),
    ValidationScenario(name="diurnal_midscale", amplitude=0.3,
                       period_s=3600.0, horizon_s=3600.0, seed=11),
    ValidationScenario(name="chaos_az", horizon_s=2400.0, seed=13,
                       plan=_chaos_plan()),
)


def run_validation(scenarios: Optional[List[ValidationScenario]] = None,
                   fluid_overrides: Optional[Dict[str, float]] = None
                   ) -> Tuple[bool, List[ValidationReport]]:
    reports = [compare_tiers(scenario, fluid_overrides)
               for scenario in (scenarios or list(DEFAULT_SCENARIOS))]
    return all(report.ok for report in reports), reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.validate",
        description="Validate the fluid fleet tier against the "
                    "per-session reference model.")
    parser.add_argument("--scenario", action="append", default=None,
                        help="run only the named scenario (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write reports as JSON")
    options = parser.parse_args(argv)
    scenarios = list(DEFAULT_SCENARIOS)
    if options.list:
        for scenario in scenarios:
            chaos = " [chaos]" if scenario.plan is not None else ""
            print(f"{scenario.name}{chaos}: {scenario.azs} AZ x "
                  f"{scenario.backends_per_az} backends, "
                  f"{scenario.services} services x "
                  f"{scenario.mean_sessions:g} sessions, "
                  f"{scenario.horizon_s:g}s horizon")
        return 0
    if options.scenario:
        by_name = {scenario.name: scenario for scenario in scenarios}
        unknown = [name for name in options.scenario if name not in by_name]
        if unknown:
            parser.error(f"unknown scenario(s): {', '.join(unknown)}; "
                         f"known: {', '.join(by_name)}")
        scenarios = [by_name[name] for name in options.scenario]
    ok, reports = run_validation(scenarios)
    for report in reports:
        status = "PASS" if report.ok else "FAIL"
        print(f"[{status}] {report.scenario}")
        for check in report.checks:
            mark = "ok " if check.ok else "BAD"
            print(f"  {mark} {check.metric:<24} fluid={check.fluid:.4f} "
                  f"ref={check.reference:.4f} delta={check.delta:.4f} "
                  f"({check.mode} tol {check.tolerance:g})")
    if options.json:
        with open(options.json, "w", encoding="utf-8") as handle:
            json.dump([report.to_json() for report in reports], handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
