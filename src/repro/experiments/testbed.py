"""Shared testbed construction (§5.1) and testbed load runs as data.

The paper's testbed: one master + two worker nodes, 15 pods per worker,
3 services; 8 cores / 16 threads. Every comparison experiment builds
this identical layout per architecture. A load run on it is a
:class:`TestbedPoint`, which :func:`run_point`, the one stateless
engine, runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..core import CanalMesh, ProxylessCanalMesh
from ..k8s import Cluster
from ..mesh import AmbientMesh, DEFAULT_COSTS, IstioMesh, MeshCostModel, NoMesh
from ..mesh.base import ServiceMesh
from ..netsim import Topology
from ..runtime.sweep import sweep_imap
from ..simcore import Simulator
from ..workloads import (ClosedLoopDriver, LoadReport, OpenLoopDriver,
                         ShortFlowDriver)

__all__ = ["TestbedRun", "TestbedPoint", "PointRun", "build_testbed",
           "run_point", "find_knee_rps", "MESH_CLASSES", "DRIVERS"]

#: Every architecture, keyed by its ``ServiceMesh.name``.
MESH_CLASSES = {
    mesh_cls.name: mesh_cls
    for mesh_cls in (NoMesh, IstioMesh, AmbientMesh, CanalMesh,
                     ProxylessCanalMesh)
}

#: The load drivers a :class:`TestbedPoint` names.
DRIVERS = {"closed": ClosedLoopDriver, "open": OpenLoopDriver,
           "short": ShortFlowDriver}

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


@dataclass(frozen=True)
class TestbedPoint:
    """One testbed load run as data. Hashable and picklable: equal
    points are the same run, so an exhibit runs each distinct point
    once. ``params`` (the driver's kwargs) and ``mesh_kwargs`` may be
    given as dicts; they are kept as sorted ``(name, value)`` items."""

    mesh: str
    driver: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 7
    costs: MeshCostModel = DEFAULT_COSTS
    mesh_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        for name, known in (("mesh", MESH_CLASSES), ("driver", DRIVERS)):
            if getattr(self, name) not in known:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"known: {sorted(known)}")
        for name in ("params", "mesh_kwargs"):
            items = sorted(dict(getattr(self, name)).items())
            object.__setattr__(self, name, tuple(items))


@dataclass
class PointRun:
    """What one :func:`run_point` measured; ``events`` counts agenda
    entries (``Simulator._sequence``)."""

    report: LoadReport
    user_cpu_s: float
    infra_cpu_s: float
    wall_s: float
    events: int


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


def run_point(point: TestbedPoint) -> PointRun:
    """Build ``point``'s testbed and drive its load (stateless and
    module-level: sweeps pickle it)."""
    started = time.perf_counter()  # simlint: ignore[DET001] run metadata
    run = build_testbed(point.mesh, seed=point.seed, costs=point.costs,
                        mesh_kwargs=dict(point.mesh_kwargs))
    driver = DRIVERS[point.driver](run.sim, run.mesh, run.client_pod,
                                   "svc1", **dict(point.params))
    report = run.run_driver(driver)
    wall_s = time.perf_counter() - started  # simlint: ignore[DET001] wall time
    return PointRun(report, run.mesh.user_cpu_seconds(),
                    run.mesh.infra_cpu_seconds(), wall_s, run.sim._sequence)


def find_knee_rps(mesh_name: str, rps_grid: List[float],
                  spike_multiplier: float = 3.0, seed: int = 7,
                  costs: MeshCostModel = DEFAULT_COSTS,
                  duration_s: float = 3.0) -> Tuple[float, List[Tuple[float, float]]]:
    """Sweep offered RPS; return (knee, [(rps, p99)]) where the knee is
    the last RPS before P99 exceeds ``spike_multiplier`` × its
    light-load value.

    Grid points (open loop over 100 connections) run through the ambient
    sweep executor. Consumption is ordered and stops past the spike, so
    the returned curve is byte-identical at any ``--jobs`` level (a
    serial executor also skips *computing* the points past the spike).
    """
    curve: List[Tuple[float, float]] = []
    base_p99: Optional[float] = None
    knee = rps_grid[0]
    points = [TestbedPoint(mesh_name, "open",
                           dict(rps=rps, duration_s=duration_s,
                                connections=100), seed, costs)
              for rps in rps_grid]
    for rps, point_run in zip(rps_grid, sweep_imap(run_point, points)):
        p99 = point_run.report.latency.percentile(99)
        curve.append((rps, p99))
        if base_p99 is None:
            base_p99 = p99
        if p99 > spike_multiplier * base_p99:
            return knee, curve
        knee = rps
    return knee, curve
