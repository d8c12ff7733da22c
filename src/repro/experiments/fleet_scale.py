"""Fleet-scale exhibits: the paper's production ops at cloud scale.

The §5.5 exhibits (``cloud_ops.py``) replay Figs 16–20 on a testbed-
sized gateway — a few hundred replicas at most, because the per-session
tier walks one object per replica. This family re-renders the same
claims through ``repro.fleet``'s fluid tier at the paper's *actual*
operating point: tens of thousands of replicas, millions of concurrent
sessions, multiple regions — in minutes of wall clock.

* ``fleet_fig13`` — mesh CPU at cloud scale: aggregate cores consumed
  by Canal vs sidecar-per-pod vs ambient at identical offered load,
  priced from the same :class:`~repro.mesh.costs.MeshCostModel` the
  testbed comparison figures use.
* ``fleet_fig17_18`` — Reuse-vs-New scaling over two days of staggered
  tenant surges: completion CDFs and per-day occurrence mix.
* ``fleet_fig19`` — shuffle-shard isolation guarantees as the tenant
  count grows to 2000 services, plus a live blast-radius probe.
* ``fleet_fig20`` — one full day of multi-region daily operations:
  10,240 replicas, ~1M concurrent sessions, 2 regions, diurnal load,
  scaling, and a chaos plan (AZ loss, backend crash, query-of-death).

Every exhibit fans out over *picklable region/point specs* through
``sweep_map``, and each worker seeds its own :class:`Simulator` from
the spec — results are byte-identical at any ``--jobs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.sharding import shard_stats
from ..faults.plan import Fault, FaultPlan
from ..fleet import (FleetConfig, FleetDemand, FleetFaultEngine, FleetModel,
                     FleetScaler)
from ..mesh.costs import DEFAULT_COSTS
from ..runtime.sweep import sweep_map
from ..simcore import Simulator, cdf
from .base import ExperimentResult, Series, Table

__all__ = [
    "fleet_fig13_cpu_at_scale",
    "fleet_fig17_18_scaling_at_scale",
    "fleet_fig19_sharding_at_scale",
    "fleet_fig20_daily_operations_at_scale",
]


# --------------------------------------------------------------------------
# Shared region worker (picklable spec in, plain dict out)
# --------------------------------------------------------------------------

class _SurgeSchedule:
    """Staggered tenant surges: every ``every``-th service multiplies
    its demand by ``factor`` during a ``window_s`` slot assigned
    round-robin through the day. A pure function of (service, t), and
    picklable — lambdas would break the ``--jobs`` fan-out."""

    def __init__(self, every: int = 8, factor: float = 2.5,
                 window_s: float = 7200.0, period_s: float = 86400.0):
        self.every = every
        self.factor = factor
        self.window_s = window_s
        self.period_s = period_s

    def __call__(self, service: int, t: float) -> float:
        if service % self.every:
            return 1.0
        slot = service // self.every
        slots = max(1, int(self.period_s / self.window_s))
        start = (slot % slots) * self.window_s
        phase = t % self.period_s
        if start <= phase < start + self.window_s:
            return self.factor
        return 1.0


def _build_plan(entries: List[Dict[str, object]]) -> FaultPlan:
    return FaultPlan.of(*[Fault(**entry) for entry in entries])


def _fleet_region_run(spec: Dict[str, object]) -> Dict[str, object]:
    """Run one region of the fluid tier; return plain-data summaries."""
    sim = Simulator(seed=spec["seed"])
    config = FleetConfig(azs=spec["azs"],
                         backends_per_az=spec["backends_per_az"],
                         services=spec["services"],
                         dt_s=spec.get("dt_s", 60.0),
                         sample_every=spec.get("sample_every", 5))
    demand = FleetDemand(mean_sessions=spec["mean_sessions"],
                         amplitude=spec.get("amplitude", 0.0),
                         phase=spec.get("phase", 0.58),
                         session_rps=spec.get("session_rps", 2.0))
    model = FleetModel(sim, config, demand)
    if spec.get("surge"):
        model.demand_scale = _SurgeSchedule(**spec["surge"])
    scaler = FleetScaler(sim, model) if spec.get("scaler") else None
    engine = None
    if spec.get("plan"):
        engine = FleetFaultEngine(sim, model)
        engine.arm(_build_plan(spec["plan"]))
    horizon = spec["horizon_s"]
    model.start(horizon)
    sim.run(until=horizon)
    model.check_invariants("end-of-run")
    model.publish_telemetry()
    metrics = model.metrics
    counters = model.counters
    topology = model.topology
    stats = shard_stats(topology.shards, topology.az_of.__getitem__)
    out: Dict[str, object] = {
        "region": spec.get("region", "region-1"),
        "replicas": topology.replicas_provisioned(),
        "backends": topology.n_backends,
        "availability": model.overall_availability(),
        "peak_sessions": max(metrics.active_sessions.values),
        "final_sessions": model.active_sessions(),
        "attempted": counters.attempted,
        "admitted": counters.admitted,
        "rejected": counters.rejected,
        "disrupted": counters.disrupted,
        "config_pushes": counters.config_pushes,
        "series": {
            name: list(zip(series.times, series.values))
            for name, series in (
                ("active_sessions", metrics.active_sessions),
                ("mean_water", metrics.mean_water),
                ("max_water", metrics.max_water),
                ("offered_rps", metrics.offered_rps),
                ("latency_p99_ms", metrics.latency_p99_ms),
                ("provisioned_replicas", metrics.provisioned_replicas),
            )},
        "shard_stats": {
            "fully_overlapping_pairs": stats.fully_overlapping_pairs,
            "max_pairwise_overlap": stats.max_pairwise_overlap,
            "min_survivor_backends": stats.min_survivor_backends,
            "multi_az_services": stats.multi_az_services,
        },
    }
    if scaler is not None:
        out["scaling"] = scaler.summary()
        out["scaling_events"] = [
            (event.kind, event.execution_s,
             event.settle_s if event.below_threshold_at else -1.0)
            for event in scaler.events if event.finished_at > 0.0]
    if engine is not None:
        out["timeline"] = list(engine.timeline)
    return out


# --------------------------------------------------------------------------
# fleet_fig13 — aggregate mesh CPU at cloud scale
# --------------------------------------------------------------------------

def fleet_fig13_cpu_at_scale(seed: int = 7) -> ExperimentResult:
    """Cores consumed by each mesh architecture at fleet-wide load.

    The fluid tier yields the region's offered RPS trajectory; each
    architecture's aggregate CPU is priced per request from the shared
    :data:`~repro.mesh.costs.DEFAULT_COSTS` table (two sidecar L7
    passes for Istio, ztunnel x2 + waypoint for Ambient, on-node L4 x2
    + gateway L7 for Canal), so the cloud-scale ratios are *derived*
    from the same constants as the testbed fig13.
    """
    result = ExperimentResult(
        "fleet_fig13", "Mesh CPU at cloud scale (fluid tier)")
    intensities = [0.5, 1.0, 1.5]
    specs = [{
        "seed": seed, "region": f"load-x{intensity:g}",
        "azs": 3, "backends_per_az": 100, "services": 150,
        "mean_sessions": 800.0 * intensity, "session_rps": 90.0,
        "amplitude": 0.3, "dt_s": 60.0, "sample_every": 10,
        "horizon_s": 86400.0,
    } for intensity in intensities]
    regions = sweep_map(_fleet_region_run, specs)

    costs = DEFAULT_COSTS
    per_request = {
        "istio": 2.0 * costs.istio_sidecar_l7_s,
        "ambient": 2.0 * costs.ambient_ztunnel_l4_s
        + costs.ambient_waypoint_l7_s,
        "canal": 2.0 * costs.canal_onnode_l4_s + costs.canal_gateway_l7_s,
    }
    table = Table("Aggregate mesh CPU at equal fleet load",
                  ["load", "offered_rps_peak", "istio_cores",
                   "ambient_cores", "canal_cores", "istio_over_canal",
                   "ambient_over_canal"])
    ratios: Dict[str, List[float]] = {"istio": [], "ambient": []}
    for intensity, region in zip(intensities, regions):
        rps_series = region["series"]["offered_rps"]
        peak_rps = max(v for _t, v in rps_series)
        cores = {name: peak_rps * cost
                 for name, cost in per_request.items()}
        table.add_row(f"x{intensity:g}", peak_rps, cores["istio"],
                      cores["ambient"], cores["canal"],
                      cores["istio"] / cores["canal"],
                      cores["ambient"] / cores["canal"])
        ratios["istio"].append(cores["istio"] / cores["canal"])
        ratios["ambient"].append(cores["ambient"] / cores["canal"])
    result.tables.append(table)
    nominal = regions[1]
    for arch, cost in sorted(per_request.items()):
        series = Series(f"{arch}_cores", x_label="seconds",
                        y_label="cores")
        for t, rps in nominal["series"]["offered_rps"][::6]:
            series.add(t, rps * cost)
        result.series.append(series)
    result.findings["istio_over_canal_cpu"] = (
        sum(ratios["istio"]) / len(ratios["istio"]))
    result.findings["ambient_over_canal_cpu"] = (
        sum(ratios["ambient"]) / len(ratios["ambient"]))
    result.findings["fleet_replicas"] = float(nominal["replicas"])
    result.notes.append(
        "fleet tier: testbed fig13's CPU ratios re-derived at "
        f"{nominal['replicas']} replicas and "
        f"{nominal['peak_sessions']:.0f} concurrent sessions from the "
        "same MeshCostModel constants")
    return result


# --------------------------------------------------------------------------
# fleet_fig17_18 — scaling behaviour over two days of tenant surges
# --------------------------------------------------------------------------

def fleet_fig17_18_scaling_at_scale(seed: int = 7) -> ExperimentResult:
    """Reuse/New completion CDFs + daily occurrence mix, at scale."""
    result = ExperimentResult(
        "fleet_fig17_18", "Scaling operations at cloud scale (fluid tier)")
    days = 2
    specs = [{
        "seed": seed + day, "region": f"day-{day + 1}",
        "azs": 3, "backends_per_az": 40, "services": 100,
        "mean_sessions": 500.0, "session_rps": 90.0,
        "amplitude": 0.25, "dt_s": 10.0, "sample_every": 30,
        "horizon_s": 86400.0, "scaler": True,
        "surge": {"every": 8, "factor": 2.5, "window_s": 7200.0},
    } for day in range(days)]
    regions = sweep_map(_fleet_region_run, specs)

    by_kind: Dict[str, List[float]] = {"reuse": [], "new": []}
    settles: Dict[str, List[float]] = {"reuse": [], "new": []}
    daily = Table("Scaling occurrences per day (fleet tier)",
                  ["day", "reuse", "new", "reuse_fraction",
                   "config_pushes"])
    for day, region in enumerate(regions):
        for kind, execution_s, settle_s in region["scaling_events"]:
            by_kind[kind].append(execution_s)
            if settle_s >= 0.0:
                settles[kind].append(settle_s)
        summary = region["scaling"]
        daily.add_row(day + 1, summary["reuse"], summary["new"],
                      summary["reuse_fraction"], region["config_pushes"])
    result.tables.append(daily)
    for kind in ("reuse", "new"):
        if not by_kind[kind]:
            continue
        series = Series(f"{kind}_completion_cdf", x_label="seconds",
                        y_label="fraction")
        for value, fraction in cdf(by_kind[kind]):
            series.add(value, fraction)
        result.series.append(series)
        result.findings[f"{kind}_median_s"] = _median(by_kind[kind])
        if settles[kind]:
            result.findings[f"{kind}_settle_median_s"] = _median(
                settles[kind])
    total = sum(len(events) for events in by_kind.values())
    result.findings["operations_per_day"] = total / days
    result.findings["reuse_fraction"] = (
        len(by_kind["reuse"]) / total if total else 0.0)
    result.notes.append(
        "paper Figs 17/18: Reuse completes in tens of seconds, New in "
        "tens of minutes, and Reuse dominates daily operations; here "
        "re-rendered from staggered tenant surges over "
        f"{specs[0]['services']} services x {days} days")
    return result


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# --------------------------------------------------------------------------
# fleet_fig19 — shuffle-shard isolation as tenant count grows
# --------------------------------------------------------------------------

def _fleet_shard_point(spec: Dict[str, object]) -> Dict[str, object]:
    """Isolation stats + a live blast-radius probe for one fleet size."""
    run = _fleet_region_run({
        "seed": spec["seed"], "region": f"services-{spec['services']}",
        "azs": 4, "backends_per_az": 160, "services": spec["services"],
        "mean_sessions": 400.0, "session_rps": 120.0,
        "dt_s": 5.0, "sample_every": 12, "horizon_s": 600.0,
        # Crash one backend mid-run: only tenants sharing its
        # combination can lose sessions — the blast-radius guarantee.
        "plan": [{"kind": "backend_crash", "at": 60.0,
                  "target": "backend:0", "duration_s": 300.0}],
    })
    total = spec["services"] * 400.0
    run["blast_fraction"] = run["disrupted"] / total
    return run


def fleet_fig19_sharding_at_scale(seed: int = 7) -> ExperimentResult:
    """Isolation guarantees from 250 to 2000 tenant services."""
    result = ExperimentResult(
        "fleet_fig19", "Shuffle-shard isolation at cloud scale")
    sizes = [250, 500, 1000, 2000]
    points = sweep_map(_fleet_shard_point,
                       [{"seed": seed, "services": size} for size in sizes])
    result.faults = [entry for point in points for entry in point["timeline"]]
    table = Table("Shuffle-shard isolation vs tenant count "
                  "(4 AZ x 640 backends)",
                  ["services", "identical_pairs", "max_overlap",
                   "min_survivors", "multi_az", "blast_fraction",
                   "availability"])
    blast = Series("blast_fraction", x_label="services",
                   y_label="sessions_disrupted_fraction")
    for size, point in zip(sizes, points):
        stats = point["shard_stats"]
        table.add_row(size, stats["fully_overlapping_pairs"],
                      stats["max_pairwise_overlap"],
                      stats["min_survivor_backends"],
                      stats["multi_az_services"],
                      point["blast_fraction"], point["availability"])
        blast.add(size, point["blast_fraction"])
    result.tables.append(table)
    result.series.append(blast)
    worst = max(point["shard_stats"]["max_pairwise_overlap"]
                for point in points)
    result.findings["identical_pairs"] = float(sum(
        point["shard_stats"]["fully_overlapping_pairs"]
        for point in points))
    result.findings["worst_pairwise_overlap"] = float(worst)
    result.findings["max_blast_fraction"] = max(
        point["blast_fraction"] for point in points)
    result.notes.append(
        "paper Fig 19: shuffle sharding keeps tenant combinations "
        "unique so one backend failure touches a vanishing fraction of "
        "tenants even at 2000 services on 640 backends")
    return result


# --------------------------------------------------------------------------
# fleet_fig20 — a full day of multi-region operations at cloud scale
# --------------------------------------------------------------------------

#: The fig20 chaos schedule: an AZ outage through morning peak, a
#: backend crash in the second region, and an afternoon query-of-death.
_FIG20_PLAN: List[Dict[str, object]] = [
    {"kind": "az_crash", "at": 30600.0, "target": "az:2",
     "duration_s": 2700.0},
    {"kind": "backend_crash", "at": 46800.0, "target": "backend:17",
     "duration_s": 1200.0},
    {"kind": "query_of_death", "at": 56700.0, "target": "service:6",
     "duration_s": 1800.0, "param": 3.0},
]


def fleet_fig20_daily_operations_at_scale(seed: int = 7) -> ExperimentResult:
    """One day of daily ops: 2 regions, 10,240 replicas, ~1M sessions."""
    result = ExperimentResult(
        "fleet_fig20", "Daily operations at cloud scale (2 regions)")
    specs = [{
        "seed": seed + index, "region": region,
        "azs": 4, "backends_per_az": 640, "services": 800,
        "mean_sessions": 640.0, "session_rps": 120.0,
        "amplitude": 0.3, "phase": phase,
        "dt_s": 60.0, "sample_every": 5, "horizon_s": 86400.0,
        "scaler": True, "plan": _FIG20_PLAN,
    } for index, (region, phase) in enumerate(
        [("us-east", 0.58), ("eu-central", 0.33)])]
    regions = sweep_map(_fleet_region_run, specs)
    result.faults = [entry for region in regions
                     for entry in region["timeline"]]

    table = Table("Daily operations per region (fluid tier)",
                  ["region", "replicas", "availability", "peak_sessions",
                   "disrupted", "reuse", "new", "config_pushes"])
    total_replicas = 0
    peak_global = 0.0
    for region in regions:
        scaling = region.get("scaling", {"reuse": 0, "new": 0})
        table.add_row(region["region"], region["replicas"],
                      region["availability"], region["peak_sessions"],
                      region["disrupted"], scaling["reuse"],
                      scaling["new"], region["config_pushes"])
        total_replicas += region["replicas"]
    result.tables.append(table)

    # Global concurrent sessions: regions sample on the same dt grid,
    # so align by index and sum.
    merged: Dict[float, float] = {}
    for region in regions:
        for t, value in region["series"]["active_sessions"]:
            merged[t] = merged.get(t, 0.0) + value
    sessions = Series("global_active_sessions", x_label="seconds",
                      y_label="sessions")
    for t in sorted(merged):
        sessions.add(t, merged[t])
        peak_global = max(peak_global, merged[t])
    result.series.append(sessions)
    for region in regions:
        water = Series(f"{region['region']}_max_water",
                       x_label="seconds", y_label="water")
        for t, value in region["series"]["max_water"][::4]:
            water.add(t, value)
        result.series.append(water)
        p99 = Series(f"{region['region']}_latency_p99_ms",
                     x_label="seconds", y_label="ms")
        for t, value in region["series"]["latency_p99_ms"][::4]:
            p99.add(t, value)
        result.series.append(p99)

    faults = Table("Fault timeline (both regions)",
                   ["region", "t", "action", "kind", "target"])
    for region in regions:
        for entry in region["timeline"]:
            faults.add_row(region["region"], entry["t"], entry["action"],
                           entry["kind"], entry["target"])
    result.tables.append(faults)

    result.findings["total_replicas"] = float(total_replicas)
    result.findings["peak_concurrent_sessions"] = peak_global
    result.findings["regions"] = float(len(regions))
    result.findings["worst_availability"] = min(
        region["availability"] for region in regions)
    result.findings["total_disrupted"] = sum(
        region["disrupted"] for region in regions)
    result.notes.append(
        "paper Fig 20 at the paper's true operating point: "
        f"{total_replicas} replicas across {len(regions)} regions, "
        f"{peak_global:.0f} peak concurrent sessions, with an AZ "
        "outage, a backend crash, and a query-of-death absorbed by "
        "shuffle sharding + Reuse-first scaling")
    return result
