"""§2.1 exhibits: the problems of per-pod sidecars.

Table 1, Fig 2, Fig 3, Fig 4, Fig 5, Table 2, Table 3.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..k8s import Cluster, ResourceRequest
from ..mesh import (
    DEFAULT_COSTS,
    IstioControlPlane,
    IstioMesh,
    MeshCostModel,
)
from ..mesh.costs import sample_service_time
from ..mesh.proxy import ProxyTier
from ..netsim import Topology
from ..runtime.sweep import sweep_map
from ..simcore import Simulator, Summary
from ..workloads import growth_trend, update_frequency_for_cluster
from .base import ExperimentResult, Series, Table
from .testbed import TestbedPoint, run_point

__all__ = [
    "table1_sidecar_resources",
    "fig2_latency_vs_utilization",
    "fig3_sidecar_growth",
    "fig4_controller_cpu",
    "fig5_istio_ambient_cpu",
    "table2_update_frequency",
    "table3_l7_adoption",
]


# --------------------------------------------------------------------------
# Table 1 — sidecar resource usage in production clusters
# --------------------------------------------------------------------------

#: (nodes, pods, sidecar cpu millicores, sidecar memory MB, target CPU
#: share, target memory share) per cluster. Per-pod sidecar requests are
#: back-solved from the paper's totals (e.g. 1500 cores / 15k pods =
#: 100 m); the target shares are Table 1's percentages and determine how
#: big the apps are relative to their sidecars (the last cluster is the
#: paper's extreme case where sidecars rival the apps).
_TABLE1_CLUSTERS = [
    (500, 15_000, 100, 340, 0.10, 0.10),
    (200, 8_000, 125, 150, 0.08, 0.05),
    (100, 1_000, 32, 150, 0.04, 0.05),
    (60, 2_000, 200, 150, 0.10, 0.06),
    (60, 400, 375, 750, 0.30, 0.25),
]


def _table1_point(spec: Tuple[Tuple[int, int, int, int, float, float],
                              float, int]) -> List[object]:
    """Build one scaled production cluster → its table row."""
    (nodes, pods, sidecar_cpu, sidecar_mem,
     cpu_target, mem_target), scale, seed = spec
    headroom = 1.15  # node capacity beyond scheduled requests
    n_nodes = max(3, int(nodes * scale))
    n_pods = max(4, int(pods * scale))
    # The first node is the master; pods land on the workers.
    pods_per_node = -(-n_pods // (n_nodes - 1))
    # App sizes back-solved so the sidecar lands at the cluster's
    # observed share of total capacity.
    app_cpu = int(sidecar_cpu * (1.0 / (cpu_target * headroom) - 1))
    app_mem = int(sidecar_mem * (1.0 / (mem_target * headroom) - 1))
    node_cpu = int(pods_per_node * (app_cpu + sidecar_cpu) * headroom)
    node_mem = int(pods_per_node * (app_mem + sidecar_mem) * headroom)
    sim = Simulator(seed)
    topology = Topology.multi_az_region(azs=1, nodes_per_az=n_nodes)
    cluster = Cluster("prod", topology.all_nodes(),
                      node_cpu_millicores=node_cpu,
                      node_memory_mb=node_mem)
    mesh = IstioMesh(sim, sidecar_resources=ResourceRequest(
        cpu_millicores=sidecar_cpu, memory_mb=sidecar_mem))
    mesh.attach(cluster)
    cluster.create_deployment(
        "app", replicas=n_pods, labels={"app": "app"},
        resources=ResourceRequest(cpu_millicores=app_cpu,
                                  memory_mb=app_mem))
    usage = cluster.resource_usage()
    cpu_share = (usage["sidecar_cpu_millicores"]
                 / usage["capacity_cpu_millicores"])
    mem_share = (usage["sidecar_memory_mb"]
                 / usage["capacity_memory_mb"])
    return [nodes, pods,
            usage["sidecar_cpu_millicores"] / scale / 1000.0,
            cpu_share,
            usage["sidecar_memory_mb"] / scale / 1024.0,
            mem_share]


def table1_sidecar_resources(scale: float = 0.1,
                             seed: int = 3) -> ExperimentResult:
    """Build each production cluster (scaled down) with sidecar
    injection and report the sidecar share of cluster resources.

    ``scale`` shrinks node/pod counts for runtime; shares are
    scale-invariant because both numerator and denominator shrink.
    """
    result = ExperimentResult("table1", "Resource usage of Istio sidecars")
    table = Table("Sidecar share of cluster resources",
                  ["nodes", "pods", "sidecar_cpu_cores", "cpu_share",
                   "sidecar_memory_gb", "memory_share"])
    for row in sweep_map(_table1_point,
                         [(cluster_row, scale, seed)
                          for cluster_row in _TABLE1_CLUSTERS]):
        table.add_row(*row)
    result.tables.append(table)
    shares = table.column("cpu_share")
    result.findings["max_cpu_share"] = max(shares)
    result.findings["min_cpu_share"] = min(shares)
    result.notes.append(
        "paper: sidecars consume 4-30% of cluster CPU and 5-25% of memory")
    return result


# --------------------------------------------------------------------------
# Fig 2 — sidecar CPU utilization vs end-to-end latency
# --------------------------------------------------------------------------

def _fig2_point(spec: Tuple[float, int, float, float, int, float]
                ) -> Tuple[float, float]:
    """One utilization level on a standalone sidecar → (p99, mean)."""
    target_util, seed, mean_cost, sigma, cores, duration_s = spec
    capacity = cores / mean_cost
    sim = Simulator(seed)
    tier = ProxyTier(sim, cores=cores, name="sidecar")
    latencies = Summary("lat")

    def one():
        start = sim.now
        cost = sample_service_time(sim.rng, mean_cost, sigma)
        yield tier.work(cost)
        latencies.add(sim.now - start)

    def arrivals(rate=target_util * capacity):
        while sim.now < duration_s:
            yield sim.timeout(sim.rng.expovariate(rate))
            sim.process(one(), name="req")

    sim.process(arrivals(), name="arrivals")
    sim.run()
    return latencies.percentile(99), latencies.mean


def fig2_latency_vs_utilization(seed: int = 11,
                                costs: MeshCostModel = DEFAULT_COSTS,
                                duration_s: float = 20.0) -> ExperimentResult:
    """Drive a standalone sidecar at rising utilization; latency doubles
    near 45 % and blows up past 75 % (heavy-tailed Envoy processing).

    Multipliers are relative to the light-load *mean* latency, the
    natural normalization for Fig 2's "latency doubles / spikes" bands.
    """
    result = ExperimentResult(
        "fig2", "Sidecar CPU usage vs end-to-end latency")
    mean_cost = costs.istio_sidecar_l7_s
    sigma = costs.istio_l7_sigma
    utilizations = (0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.85, 0.92)
    points = sweep_map(_fig2_point,
                       [(target_util, seed, mean_cost, sigma, 2, duration_s)
                        for target_util in utilizations])
    series_p99 = Series("p99_latency", x_label="cpu_utilization",
                        y_label="latency_multiplier")
    series_mean = Series("mean_latency", x_label="cpu_utilization",
                         y_label="latency_multiplier")
    base_mean = points[0][1]
    for target_util, (p99, mean) in zip(utilizations, points):
        series_p99.add(target_util, p99 / base_mean)
        series_mean.add(target_util, mean / base_mean)
    result.series.extend([series_p99, series_mean])
    by_util = dict(series_mean.points)
    result.findings["mean_multiplier_at_45pct"] = by_util[0.45]
    result.findings["p99_multiplier_at_92pct"] = dict(series_p99.points)[0.92]
    result.notes.append(
        "paper: latency doubles past 45% utilization and spikes "
        "(100x-1000x) past 75%")
    return result


# --------------------------------------------------------------------------
# Fig 3 — sidecar count growth for a major customer
# --------------------------------------------------------------------------

def fig3_sidecar_growth(seed: int = 5) -> ExperimentResult:
    """2020 → 2022 sidecar counts (~2× growth), quarterly."""
    result = ExperimentResult("fig3", "#Sidecars for a major customer")
    rng = random.Random(seed)
    quarters = 9  # 2020Q1 .. 2022Q1
    counts = growth_trend(rng, start_value=52_000, end_value=100_000,
                          points=quarters)
    series = Series("sidecars", x_label="quarter_index", y_label="sidecars")
    for index, count in enumerate(counts):
        series.add(index, count)
    result.series.append(series)
    result.findings["growth_ratio"] = counts[-1] / counts[0]
    result.notes.append("paper: the sidecar count nearly doubles 2020-2022")
    return result


# --------------------------------------------------------------------------
# Fig 4 — controller CPU usage and pod update time vs cluster size
# --------------------------------------------------------------------------

def _fig4_point(spec: Tuple[int, int]) -> Tuple[float, float, float]:
    """One cluster size → (build cpu_s, push cpu rate, completion_s)."""
    pods, seed = spec
    sim = Simulator(seed)
    topology = Topology.multi_az_region(azs=1,
                                        nodes_per_az=max(2, pods // 15))
    cluster = Cluster("cp", topology.all_nodes(),
                      node_cpu_millicores=10_000_000,
                      node_memory_mb=10_000_000)
    services = max(1, pods // 2)
    per_service = max(1, pods // services)
    for index in range(services):
        cluster.create_deployment(f"s{index}", replicas=per_service,
                                  labels={"app": f"s{index}"})
        cluster.create_service(f"s{index}", selector={"app": f"s{index}"})
    plane = IstioControlPlane(sim, cluster)
    push = sim.process(plane.push_update())
    sim.run()
    report = push.value
    # Pushing is I/O-bound: its CPU *rate* during the update stays
    # flat while total bytes (and completion) grow.
    return (report.build_cpu_s,
            report.push_cpu_s / report.completion_s,
            report.completion_s)


def fig4_controller_cpu(cluster_sizes: Optional[List[int]] = None,
                        seed: int = 13) -> ExperimentResult:
    """Istio full-config updates: build CPU grows with cluster size,
    push CPU stays flat, completion time stretches."""
    result = ExperimentResult(
        "fig4", "Controller CPU usage and pod update time (Istio)")
    sizes = cluster_sizes or [100, 300, 600, 1000]
    build_series = Series("build_cpu_s", x_label="pods", y_label="cpu_s")
    push_series = Series("push_cpu_utilization", x_label="pods",
                         y_label="cores")
    completion_series = Series("completion_s", x_label="pods",
                               y_label="seconds")
    points = sweep_map(_fig4_point, [(pods, seed) for pods in sizes])
    for pods, (build_cpu, push_rate, completion) in zip(sizes, points):
        build_series.add(pods, build_cpu)
        push_series.add(pods, push_rate)
        completion_series.add(pods, completion)
    result.series.extend([build_series, push_series, completion_series])
    result.findings["build_growth"] = (
        build_series.ys[-1] / build_series.ys[0])
    result.findings["push_rate_growth"] = (
        push_series.ys[-1] / push_series.ys[0])
    result.findings["completion_growth"] = (
        completion_series.ys[-1] / completion_series.ys[0])
    result.notes.append(
        "paper: building is CPU-bound and grows with cluster size; "
        "pushing is I/O-bound (flat CPU) but completion takes longer")
    return result


# --------------------------------------------------------------------------
# Fig 5 — CPU usage of Istio and Ambient
# --------------------------------------------------------------------------

def fig5_istio_ambient_cpu(rps_levels: Optional[List[float]] = None,
                           seed: int = 7,
                           duration_s: float = 2.0) -> ExperimentResult:
    """User-cluster proxy CPU of Istio vs Ambient under equal load.

    Ambient shares proxies but per-service waypoints still see their
    pods' synchronized peaks, so its saving over Istio is bounded.
    """
    result = ExperimentResult("fig5", "CPU usage of Istio and Ambient")
    levels = rps_levels or [200, 500, 1000]
    meshes = ("istio", "ambient")
    points = [TestbedPoint(mesh_name, "open",
                           dict(rps=rps, duration_s=duration_s,
                                connections=50), seed)
              for mesh_name in meshes for rps in levels]
    cores = [point_run.user_cpu_s / duration_s
             for point_run in sweep_map(run_point, points)]
    for index, mesh_name in enumerate(meshes):
        series = Series(f"{mesh_name}_user_cpu_cores", x_label="rps",
                        y_label="cores")
        for rps, user in zip(
                levels, cores[index * len(levels):(index + 1) * len(levels)]):
            series.add(rps, user)
        result.series.append(series)
    istio = result.series_named("istio_user_cpu_cores")
    ambient = result.series_named("ambient_user_cpu_cores")
    ratios = [i / a for (_x, i), (_y, a) in zip(istio.points, ambient.points)]
    result.findings["istio_over_ambient_cpu"] = sum(ratios) / len(ratios)
    result.notes.append(
        "paper: Ambient's resource sharing saves CPU vs Istio, but less "
        "than hoped (synchronized peaks at per-service waypoints)")
    return result


# --------------------------------------------------------------------------
# Table 2 — configuration update frequency by cluster size
# --------------------------------------------------------------------------

def table2_update_frequency(seed: int = 17) -> ExperimentResult:
    """Update frequency grows with cluster size (more services)."""
    result = ExperimentResult("table2", "Config update frequency by cluster")
    rng = random.Random(seed)
    table = Table("Configuration update frequency",
                  ["nodes", "pods", "updates_per_min"])
    rows = [(6, 300), (45, 900), (200, 2250)]
    for nodes, pods in rows:
        frequency = update_frequency_for_cluster(rng, pods)
        table.add_row(nodes, pods, frequency)
    result.tables.append(table)
    freqs = table.column("updates_per_min")
    result.findings["small_cluster_per_min"] = freqs[0]
    result.findings["large_cluster_per_min"] = freqs[-1]
    result.notes.append(
        "paper bands: 100-500 pods -> 1-5/min; 700-1100 -> 10-20/min; "
        "1500-3000 -> 40-70/min")
    return result


# --------------------------------------------------------------------------
# Table 3 — proportion of users enabling L7 features by region
# --------------------------------------------------------------------------

#: Per-region (L7 any, L7 routing, L7 security) adoption probabilities —
#: the operational data of Table 3, used as workload-model constants.
_TABLE3_REGIONS = {
    "Region1": (0.95, 0.95, 0.29),
    "Region2": (0.93, 0.93, 0.33),
    "Region3": (0.90, 0.86, 0.27),
    "Region4": (0.80, 0.72, 0.40),
    "Region5": (0.88, 0.80, 0.53),
}


def table3_l7_adoption(users_per_region: int = 2000,
                       seed: int = 23) -> ExperimentResult:
    """Sample synthetic user populations with the paper's adoption rates
    and report the measured proportions (validates the workload model
    used to justify 'most users need L7')."""
    result = ExperimentResult("table3", "Users enabling L7 features")
    rng = random.Random(seed)
    table = Table("L7 adoption by region",
                  ["region", "l7", "l7_routing", "l7_security"])
    for region, (p_l7, p_routing, p_security) in _TABLE3_REGIONS.items():
        l7 = routing = security = 0
        for _ in range(users_per_region):
            has_l7 = rng.random() < p_l7
            l7 += has_l7
            if has_l7:
                routing += rng.random() < p_routing / p_l7
                security += rng.random() < p_security / p_l7
        table.add_row(region, l7 / users_per_region,
                      routing / users_per_region,
                      security / users_per_region)
    result.tables.append(table)
    l7_values = table.column("l7")
    result.findings["min_l7_share"] = min(l7_values)
    result.findings["max_l7_share"] = max(l7_values)
    result.notes.append("paper: 80-95% of customers configure L7 rules")
    return result
