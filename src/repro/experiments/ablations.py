"""Ablation studies: what each Canal design choice buys.

Each ablation removes or de-tunes one mechanism DESIGN.md calls out and
measures the paper-relevant metric with and without it:

* shuffle sharding vs. naive block placement → blast radius;
* Canal's long redirector chains (4) vs. Beamer's 2 → session
  consistency through consecutive scale events;
* health-check aggregation levels, individually → probe volume;
* eBPF Nagle on/off → small-packet context switches (the §4.1.2 bug);
* RCA-driven precise scaling vs. blind scaling → operations and time;
* session-aggregation tunnel count → core balance vs. session savings;
* incremental vs. full-config push → southbound bytes (§2.1's
  "incremental update would be preferable").
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Dict, List

from ..core import (
    Backend,
    DisaggregatedLB,
    GatewayConfig,
    MeshGateway,
    Replica,
    ScalingEngine,
    ScalingTimings,
    SessionAggregator,
    place_shard,
    shard_stats,
)
from ..core.healthcheck import HealthCheckPlan
from ..core.replica import ReplicaConfig
from ..kernel import EbpfRedirect
from ..mesh.controlplane import ConfigTarget, IstioControlPlane
from ..netsim import FiveTuple
from ..simcore import Simulator
from .base import ExperimentResult, Series, Table
from .health_checks import CASES

__all__ = [
    "ablation_shuffle_sharding",
    "ablation_chain_length",
    "ablation_health_aggregation_levels",
    "ablation_ebpf_nagle",
    "ablation_precise_vs_blind_scaling",
    "ablation_tunnel_count",
    "ablation_incremental_push",
    "ablation_peak_shaving",
    "ABLATIONS",
]


# --------------------------------------------------------------------------
# Shuffle sharding vs naive block placement
# --------------------------------------------------------------------------

def _naive_assign(services: int, backends: List[Backend],
                  per_service: int) -> Dict[int, List[Backend]]:
    """Contiguous block placement: service i gets backends
    [k, k+per_service) — the pre-shuffle-sharding strawman."""
    assignment = {}
    for service_id in range(services):
        start = (service_id * per_service) % len(backends)
        chosen = [backends[(start + i) % len(backends)]
                  for i in range(per_service)]
        assignment[service_id] = chosen
        for backend in chosen:
            backend.install_service(service_id)
    return assignment


def ablation_shuffle_sharding(services: int = 24, backends_per_az: int = 6,
                              seed: int = 91) -> ExperimentResult:
    """Blast radius when one service's whole backend set dies."""
    result = ExperimentResult(
        "ablation_sharding", "Shuffle sharding vs naive placement")
    sim = Simulator(seed)

    # Naive block placement.
    naive_backends = [Backend(sim, f"n{i}", "az1")
                      for i in range(2 * backends_per_az)]
    naive = _naive_assign(services, naive_backends, per_service=4)

    def naive_collateral() -> float:
        """Mean # of *other* services fully lost when one service's
        backends all fail."""
        losses = []
        for victim, victim_backends in naive.items():
            doomed = {b.name for b in victim_backends}
            lost = sum(
                1 for other, other_backends in naive.items()
                if other != victim
                and {b.name for b in other_backends} <= doomed)
            losses.append(lost)
        return sum(losses) / len(losses)

    # Shuffle sharding. Every service spans both AZs, so their loads
    # never differ and the AZ order is the pools' order.
    rng = random.Random(seed)
    pools = [[Backend(sim, f"{az}-b{i}", az) for i in range(backends_per_az)]
             for az in ("az1", "az2")]
    used: set = set()
    shards = [place_shard(rng, pools, (0, 0), per_az=2, azs_per_service=2,
                          used=used)
              for _service in range(services)]
    # A service co-fails when its whole shard lies inside the victim's.
    # Every shard here has four backends, so only an equal shard does,
    # and each fully overlapping pair co-fails once from either side.
    shuffled_collateral = (
        2 * shard_stats(shards, attrgetter("az")).fully_overlapping_pairs
        / services)

    table = Table("Mean co-failing services per total service failure",
                  ["placement", "collateral_services"])
    table.add_row("naive blocks", naive_collateral())
    table.add_row("shuffle sharding", shuffled_collateral)
    result.tables.append(table)
    result.findings["naive_collateral"] = naive_collateral()
    result.findings["shuffled_collateral"] = shuffled_collateral
    result.notes.append(
        "shuffle sharding guarantees zero co-failing services; block "
        "placement takes down every co-located block")
    return result


# --------------------------------------------------------------------------
# Redirector chain length: Beamer's 2 vs Canal's 4
# --------------------------------------------------------------------------

def ablation_chain_length(flows: int = 300, drains: int = 3,
                          seed: int = 93) -> ExperimentResult:
    """Session survival through consecutive replica drains (§4.4's
    reason for chains > 2: e.g. consecutive crashes from a query of
    death)."""
    result = ExperimentResult(
        "ablation_chain", "Redirector chain length under repeated drains")
    table = Table("Established-flow survival after consecutive drains",
                  ["max_chain", "flows_kept", "fraction"])
    for max_chain in (2, 4):
        sim = Simulator(seed)
        replicas = [Replica(sim, f"ip{i}", "az1", ReplicaConfig())
                    for i in range(drains + 2)]
        lb = DisaggregatedLB(service_id=1, replicas=replicas,
                             max_chain=max_chain)
        sample = [FiveTuple(f"10.3.{i // 250}.{i % 250 + 1}",
                            10_000 + i, "10.9.9.9", 443)
                  for i in range(flows)]
        owners = {f: lb.deliver(f, is_syn=True).replica.name
                  for f in sample}
        # Drain several replicas back-to-back without waiting for flows
        # to age (the crash-cascade scenario).
        for index in range(drains):
            lb.drain_replica(f"ip{index}")
        kept = sum(1 for f in sample
                   if lb.deliver(f, is_syn=False).replica.name == owners[f])
        table.add_row(max_chain, kept, kept / flows)
        result.findings[f"kept_fraction_chain{max_chain}"] = kept / flows
    result.tables.append(table)
    result.notes.append(
        "Beamer's chain of 2 evicts owners after the second drain; "
        "Canal's longer chains keep sessions routable")
    return result


# --------------------------------------------------------------------------
# Health-check aggregation levels, one at a time
# --------------------------------------------------------------------------

def ablation_health_aggregation_levels() -> ExperimentResult:
    """Contribution of each aggregation level across the Table 6 cases."""
    result = ExperimentResult(
        "ablation_health", "Health-check aggregation level contributions")
    table = Table("Probe RPS by enabled levels (Case aggregate)",
                  ["levels_enabled", "probe_rps", "reduction"])
    total_base = sum(case.plan().base_rps() for case in CASES)
    rows = [
        ("none", sum(case.plan().base_rps() for case in CASES)),
        ("service", sum(case.plan().service_level_rps() for case in CASES)),
        ("service+core", sum(case.plan().core_level_rps()
                             for case in CASES)),
        ("service+core+replica", sum(case.plan().replica_level_rps()
                                     for case in CASES)),
    ]
    for label, rps in rows:
        table.add_row(label, rps, 1 - rps / total_base)
    result.tables.append(table)
    result.findings["service_only_reduction"] = 1 - rows[1][1] / total_base
    result.findings["full_reduction"] = 1 - rows[3][1] / total_base
    result.notes.append(
        "the core and replica levels provide the bulk of the 99.6%+ "
        "reduction; service-level dedupe alone is modest")
    return result


# --------------------------------------------------------------------------
# eBPF Nagle on/off across message sizes
# --------------------------------------------------------------------------

def ablation_ebpf_nagle(rps: float = 4000.0) -> ExperimentResult:
    """The §4.1.2 fix quantified across message sizes."""
    result = ExperimentResult(
        "ablation_nagle", "eBPF Nagle re-implementation across sizes")
    sizes = [16, 64, 256, 1024, 4096]
    with_nagle = Series("ctx_per_s_nagle", x_label="bytes", y_label="ctx/s")
    without = Series("ctx_per_s_no_nagle", x_label="bytes", y_label="ctx/s")
    for size in sizes:
        on = EbpfRedirect(nagle_enabled=True).path_cost(size, rps)
        off = EbpfRedirect(nagle_enabled=False).path_cost(size, rps)
        with_nagle.add(size, on.context_switches)
        without.add(size, off.context_switches)
    result.series.extend([with_nagle, without])
    result.findings["small_packet_ctx_saving"] = (
        1 - with_nagle.ys[0] / without.ys[0])
    result.findings["large_packet_ctx_saving"] = (
        1 - with_nagle.ys[-1] / without.ys[-1])
    result.notes.append(
        "aggregation only matters below the MSS; large messages are "
        "unaffected — matching the Fig 29 observation")
    return result


# --------------------------------------------------------------------------
# Precise (RCA-driven) vs blind scaling
# --------------------------------------------------------------------------

def ablation_precise_vs_blind_scaling(seed: int = 95) -> ExperimentResult:
    """§4.3's motivation: scaling every service on a hot backend is
    slower and wastes operations vs pinpointing the one that grew."""
    result = ExperimentResult(
        "ablation_scaling", "Precise (RCA) vs blind scaling")

    def build(seed_offset: int):
        sim = Simulator(seed + seed_offset)
        config = GatewayConfig(
            replicas_per_backend=2, backends_per_service_per_az=2,
            azs_per_service=2,
            replica=ReplicaConfig(cores=8, request_cost_s=100e-6))
        gateway = MeshGateway(sim, config)
        gateway.deploy_initial(["az1", "az2"], 10)
        services = []
        for index in range(8):
            tenant = gateway.registry.add_tenant(f"t{index}")
            service = gateway.registry.add_service(
                tenant, "web", f"10.0.0.{index + 1}")
            gateway.register_service(service)
            gateway.set_service_load(service.service_id, 25_000.0)
            services.append(service)
        hot = max(gateway.all_backends,
                  key=lambda b: len(b.configured_services))
        grower = next(iter(hot.top_services(1)))
        gateway.set_service_load(grower, 400_000.0)
        return sim, gateway, hot, grower

    timings = ScalingTimings(reuse_median_s=25.0, reuse_sigma=0.0,
                             settle_median_s=0.1, settle_sigma=0.0)

    # Precise: scale only the RCA-identified grower.
    sim, gateway, hot, grower = build(0)
    engine = ScalingEngine(sim, gateway, timings=timings, target_water=0.5)
    process = sim.process(engine.scale_service(grower))
    sim.run()
    precise_ops = len(gateway.service_backends[grower]) - 4
    precise_time = process.value.finished_at - process.value.executed_at
    precise_water = hot.water_level()

    # Blind: scale every service configured on the hot backend.
    sim, gateway, hot, grower = build(1)
    engine = ScalingEngine(sim, gateway, timings=timings, target_water=0.5)
    victims = sorted(hot.configured_services)

    def blind():
        for service_id in victims:
            yield from engine.scale_service(service_id)

    start = sim.now
    sim.process(blind())
    sim.run()
    blind_time = sim.now - start
    blind_ops = sum(len(gateway.service_backends[sid]) - 4
                    for sid in victims)
    blind_water = hot.water_level()

    table = Table("Scaling strategy comparison",
                  ["strategy", "config_operations", "wall_time_s",
                   "hot_backend_water_after"])
    table.add_row("precise (RCA)", precise_ops, precise_time, precise_water)
    table.add_row("blind (all services)", blind_ops, blind_time, blind_water)
    result.tables.append(table)
    result.findings["precise_ops"] = float(precise_ops)
    result.findings["blind_ops"] = float(blind_ops)
    result.findings["precise_time_s"] = precise_time
    result.findings["blind_time_s"] = blind_time
    result.notes.append(
        "blind scaling spends several times the operations and delays "
        "the water-level drop (it scales innocents before the culprit)")
    return result


# --------------------------------------------------------------------------
# Tunnel count sweep
# --------------------------------------------------------------------------

def ablation_tunnel_count(user_sessions: int = 300_000) -> ExperimentResult:
    """Tunnels per core: enough for core balance, few enough to matter."""
    result = ExperimentResult(
        "ablation_tunnels", "Session-aggregation tunnel count")
    sim = Simulator(0)
    replica = Replica(sim, "r1", "az1", ReplicaConfig(cores=8))
    table = Table("Tunnels-per-core trade-off",
                  ["tunnels_per_core", "underlay_sessions",
                   "core_imbalance"])
    for tunnels_per_core in (1, 2, 5, 10, 50):
        aggregator = SessionAggregator(tunnels_per_core=tunnels_per_core)
        sessions = aggregator.underlay_sessions(replica, user_sessions)
        spread = aggregator.core_spread(replica)
        imbalance = (max(spread) - min(spread)) / max(spread)
        table.add_row(tunnels_per_core, sessions, imbalance)
    result.tables.append(table)
    result.findings["sessions_at_10x"] = float(
        SessionAggregator(tunnels_per_core=10)
        .underlay_sessions(replica, user_sessions))
    result.findings["session_reduction_at_10x"] = (
        1 - result.findings["sessions_at_10x"] / user_sessions)
    result.notes.append(
        "the paper's ~10 tunnels/core keeps cores balanced while "
        "collapsing underlay session state by ~3-4 orders of magnitude")
    return result


# --------------------------------------------------------------------------
# Incremental vs full-config push
# --------------------------------------------------------------------------

class _IncrementalIstioControlPlane(IstioControlPlane):
    """What Istio *could* do: push only the delta to each sidecar.

    §2.1: "while incremental update would be preferable, Istio currently
    lacks good support for it". The delta is one endpoint/rule entry
    plus the envelope, still delivered to every sidecar: O(N) instead of
    O(N²) bytes.
    """

    kind = "istio-incremental"

    def targets_for_update(self, kind: str = "routing"):
        delta = self.costs.envelope_bytes + self.costs.rule_bytes
        return [ConfigTarget(name=f"sidecar-{pod_name}", kind="sidecar",
                             config_bytes=delta,
                             apply_s=self.costs.sidecar_apply_s)
                for pod_name in self.cluster.pods]


def ablation_incremental_push(pod_counts=(100, 400, 1000),
                              seed: int = 97) -> ExperimentResult:
    """Southbound bytes: full-config vs incremental xDS."""
    from ..k8s import Cluster
    from ..netsim import Topology

    result = ExperimentResult(
        "ablation_incremental", "Full vs incremental config push")
    full_series = Series("full_push_bytes", x_label="pods", y_label="bytes")
    incremental_series = Series("incremental_push_bytes", x_label="pods",
                                y_label="bytes")
    for pods in pod_counts:
        for plane_cls, series in ((IstioControlPlane, full_series),
                                  (_IncrementalIstioControlPlane,
                                   incremental_series)):
            sim = Simulator(seed)
            topology = Topology.multi_az_region(
                azs=1, nodes_per_az=max(2, pods // 15))
            cluster = Cluster("cp", topology.all_nodes(),
                              node_cpu_millicores=10_000_000,
                              node_memory_mb=10_000_000)
            services = max(1, pods // 2)
            per_service = max(1, pods // services)
            for index in range(services):
                cluster.create_deployment(f"s{index}", replicas=per_service,
                                          labels={"app": f"s{index}"})
                cluster.create_service(f"s{index}",
                                       selector={"app": f"s{index}"})
            plane = plane_cls(sim, cluster)
            process = sim.process(plane.push_update())
            sim.run()
            series.add(pods, process.value.total_bytes)
    result.series.extend([full_series, incremental_series])
    ratios = [f / i for (_x, f), (_y, i)
              in zip(full_series.points, incremental_series.points)]
    result.findings["full_over_incremental_small"] = ratios[0]
    result.findings["full_over_incremental_large"] = ratios[-1]
    result.notes.append(
        "the full-config penalty grows with cluster size: the O(N^2) vs "
        "O(N) gap §2.1 complains about")
    return result


# --------------------------------------------------------------------------
# Consolidation peak shaving (§3.1's "efficient peak shaving")
# --------------------------------------------------------------------------

def ablation_peak_shaving(services: int = 12, seed: int = 99
                          ) -> ExperimentResult:
    """Capacity needed by per-service proxies vs one consolidated proxy.

    Per-service proxies (sidecars, waypoints) must each be provisioned
    for their own peak; a consolidated gateway provisions for the peak
    of the *sum*. With staggered diurnal phases the sum is much flatter
    — unless the services are in phase (Ambient's per-service waypoint
    problem, and why Canal's phase monitor scatters in-phase services).
    """
    from ..workloads import diurnal_profile

    result = ExperimentResult(
        "ablation_peaks", "Peak shaving from proxy consolidation")
    rng = random.Random(seed)
    table = Table("Provisioned capacity (RPS) by sharing strategy",
                  ["workload_phases", "per_service_sum_of_peaks",
                   "consolidated_peak_of_sum", "saving"])
    for label, positions in (
            ("staggered", [i / services for i in range(services)]),
            ("synchronized", [0.5] * services)):
        profiles = [diurnal_profile(rng, 400.0, 4000.0,
                                    peak_position=position)
                    for position in positions]
        sum_of_peaks = sum(profile.peak for profile in profiles)
        n = len(profiles[0].samples)
        peak_of_sum = max(sum(profile.samples[i] for profile in profiles)
                          for i in range(n))
        saving = 1 - peak_of_sum / sum_of_peaks
        table.add_row(label, sum_of_peaks, peak_of_sum, saving)
        result.findings[f"saving_{label}"] = saving
    result.tables.append(table)
    result.notes.append(
        "staggered workloads make consolidation cheap; synchronized "
        "peaks erase the benefit — the reduced peak-shaving the paper "
        "observes at Ambient's per-service waypoints (Fig 5), and the "
        "reason Canal scatters in-phase services (§6.3)")
    return result


ABLATIONS = {
    "ablation_sharding": ablation_shuffle_sharding,
    "ablation_peaks": ablation_peak_shaving,
    "ablation_chain": ablation_chain_length,
    "ablation_health": ablation_health_aggregation_levels,
    "ablation_nagle": ablation_ebpf_nagle,
    "ablation_scaling": ablation_precise_vs_blind_scaling,
    "ablation_tunnels": ablation_tunnel_count,
    "ablation_incremental": ablation_incremental_push,
}
