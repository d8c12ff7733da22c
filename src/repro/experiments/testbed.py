"""Shared testbed construction (§5.1) and measurement helpers.

The paper's testbed: one master + two worker nodes, 15 pods per worker,
3 services; 8 cores / 16 threads. Every comparison experiment builds
this identical layout per architecture.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Type

from ..core import CanalMesh, ProxylessCanalMesh
from ..k8s import Cluster
from ..mesh import AmbientMesh, DEFAULT_COSTS, IstioMesh, MeshCostModel, NoMesh
from ..mesh.base import ServiceMesh
from ..netsim import Topology
from ..runtime.sweep import sweep_imap
from ..simcore import Simulator
from ..workloads import ClosedLoopDriver, LoadReport, OpenLoopDriver

__all__ = ["TestbedRun", "build_testbed", "light_load_latency",
           "latency_at_rps", "find_knee_rps", "MESH_CLASSES"]

#: Every architecture, keyed by its ``ServiceMesh.name``.
MESH_CLASSES = {
    mesh_cls.name: mesh_cls
    for mesh_cls in (NoMesh, IstioMesh, AmbientMesh, CanalMesh,
                     ProxylessCanalMesh)
}

#: The §5.1 testbed shape.
SERVICES = 3
PODS_PER_SERVICE = 10
WORKER_NODES = 2


class TestbedRun:
    """A fully built testbed ready to drive load."""

    def __init__(self, sim: Simulator, cluster: Cluster, mesh: ServiceMesh):
        self.sim = sim
        self.cluster = cluster
        self.mesh = mesh

    @property
    def client_pod(self):
        return self.cluster.pods["svc0-1"]

    def run_driver(self, driver) -> LoadReport:
        process = self.sim.process(driver.run(), name="driver")
        self.sim.run()
        return process.value


def build_testbed(mesh_name: str, seed: int = 7,
                  costs: MeshCostModel = DEFAULT_COSTS,
                  mesh_kwargs: Optional[dict] = None) -> TestbedRun:
    """Construct the §5.1 testbed for one architecture."""
    mesh_cls = MESH_CLASSES[mesh_name]
    sim = Simulator(seed)
    topology = Topology.single_az_testbed(worker_nodes=WORKER_NODES)
    cluster = Cluster("testbed", topology.all_nodes())
    mesh = mesh_cls(sim, costs=costs, **(mesh_kwargs or {}))
    mesh.attach(cluster)
    for index in range(SERVICES):
        name = f"svc{index}"
        cluster.create_deployment(name, replicas=PODS_PER_SERVICE,
                                  labels={"app": name})
        cluster.create_service(name, selector={"app": name})
    return TestbedRun(sim, cluster, mesh)


def light_load_latency(mesh_name: str, seed: int = 7,
                       costs: MeshCostModel = DEFAULT_COSTS,
                       requests: int = 100,
                       mesh_kwargs: Optional[dict] = None) -> LoadReport:
    """Fig 10's probe: 1 thread, 1 connection, 1 request per second."""
    run = build_testbed(mesh_name, seed=seed, costs=costs,
                        mesh_kwargs=mesh_kwargs)
    driver = ClosedLoopDriver(run.sim, run.mesh, run.client_pod, "svc1",
                              connections=1,
                              requests_per_connection=requests,
                              think_time_s=1.0)
    return run.run_driver(driver)


def latency_at_rps(mesh_name: str, rps: float, duration_s: float = 3.0,
                   seed: int = 7, costs: MeshCostModel = DEFAULT_COSTS,
                   connections: int = 100,
                   mesh_kwargs: Optional[dict] = None
                   ) -> Tuple[LoadReport, TestbedRun]:
    """Fig 11's probe: open-loop offered load over 100 connections."""
    run = build_testbed(mesh_name, seed=seed, costs=costs,
                        mesh_kwargs=mesh_kwargs)
    driver = OpenLoopDriver(run.sim, run.mesh, run.client_pod, "svc1",
                            rps=rps, duration_s=duration_s,
                            connections=connections)
    report = run.run_driver(driver)
    return report, run


def _knee_point(spec: Tuple[str, float, float, int, MeshCostModel]) -> float:
    """One RPS grid point → P99 latency (module-level: sweeps pickle it)."""
    mesh_name, rps, duration_s, seed, costs = spec
    report, _run = latency_at_rps(mesh_name, rps, duration_s=duration_s,
                                  seed=seed, costs=costs)
    return report.latency.percentile(99)


def find_knee_rps(mesh_name: str, rps_grid: List[float],
                  spike_multiplier: float = 3.0, seed: int = 7,
                  costs: MeshCostModel = DEFAULT_COSTS,
                  duration_s: float = 3.0) -> Tuple[float, List[Tuple[float, float]]]:
    """Sweep offered RPS; return (knee, [(rps, p99)]) where the knee is
    the last RPS before P99 exceeds ``spike_multiplier`` × its
    light-load value.

    Grid points run through the ambient sweep executor. Consumption is
    ordered and stops past the spike, so the returned curve is
    byte-identical at any ``--jobs`` level (a serial executor also skips
    *computing* the points past the spike).
    """
    curve: List[Tuple[float, float]] = []
    base_p99: Optional[float] = None
    knee = rps_grid[0]
    specs = [(mesh_name, rps, duration_s, seed, costs) for rps in rps_grid]
    for rps, p99 in zip(rps_grid, sweep_imap(_knee_point, specs)):
        curve.append((rps, p99))
        if base_p99 is None:
            base_p99 = p99
        if p99 > spike_multiplier * base_p99:
            return knee, curve
        knee = rps
    return knee, curve
