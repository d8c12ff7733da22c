"""Control planes: configuration building and southbound distribution.

The paper's control-plane analysis (§2.1) reduces to counting:

* Istio builds an O(N)-sized full configuration *per sidecar* and pushes
  it to all N sidecars on any update — O(N²) southbound bytes, with
  build CPU proportional to cluster size and push completion growing
  with cluster size (Fig 4).
* Ambient pushes to O(node + service) proxies.
* Canal pushes to the centralized gateway (plus rare, tiny identity
  configs to on-node proxies).

Scope factors calibrate how much of the full config each proxy type
receives: sidecars get namespace/service-scoped slices (~1/3 in the
3-service testbed), ztunnels get the workload-identity portion (~0.8),
waypoints and the gateway get full route configuration. With the §5.1
testbed (30 pods / 2 nodes / 3 services) these yield the paper's exact
Fig 15 ratios: Istio 9.8×, Ambient 4.6× Canal's southbound bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..k8s import Cluster
from ..netsim import Link
from ..obs.runtime import get_telemetry
from ..obs.trace import get_tracer
from ..simcore import CpuResource, Resource, Simulator

__all__ = [
    "ControlPlaneCosts",
    "ConfigTarget",
    "PushReport",
    "ControlPlane",
    "IstioControlPlane",
    "AmbientControlPlane",
]


@dataclass(frozen=True)
class ControlPlaneCosts:
    """Sizes and costs of configuration handling."""

    envelope_bytes: int = 2048
    endpoint_bytes: int = 150
    rule_bytes: int = 300
    #: Tiny identity/observability config for a Canal on-node proxy.
    onnode_identity_bytes: int = 600
    #: Controller CPU to serialize one config byte (xDS marshalling).
    build_cpu_per_byte_s: float = 2e-6
    #: Controller CPU per byte to push (I/O-bound, much cheaper).
    push_cpu_per_byte_s: float = 2e-8
    #: Proxy-side apply/reconcile time by proxy kind.
    sidecar_apply_s: float = 20e-3
    ztunnel_apply_s: float = 50e-3
    waypoint_apply_s: float = 2.0
    gateway_apply_s: float = 0.4
    onnode_apply_s: float = 10e-3
    #: Controller distribution loop: per-proxy send/ACK round trip,
    #: serialized (the xDS distribution worker handles one stream at a
    #: time) — this is what makes configuring N sidecars O(N) wall time.
    distribution_ack_s: float = 35e-3
    #: Pod cold-start (schedule, image, readiness) before mesh config:
    #: a base plus a per-pod term (mass creations stagger the scheduler
    #: and image pulls).
    pod_startup_s: float = 5.0
    per_pod_startup_s: float = 0.02

    # Scope factors: fraction of the full config each proxy type gets.
    sidecar_scope: float = 9.8 / 30.0
    ztunnel_scope: float = 0.8
    waypoint_scope: float = 1.0
    gateway_scope: float = 1.0


@dataclass(frozen=True)
class ConfigTarget:
    """One proxy to configure in an update round."""

    name: str
    kind: str            # sidecar | ztunnel | waypoint | gateway | onnode
    config_bytes: int
    apply_s: float


@dataclass
class PushReport:
    """Outcome of one configuration update round."""

    targets: int = 0
    total_bytes: int = 0
    build_cpu_s: float = 0.0
    push_cpu_s: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def completion_s(self) -> float:
        return self.finished_at - self.started_at


class ControlPlane:
    """Shared build/push machinery; subclasses enumerate targets."""

    def __init__(self, sim: Simulator, cluster: Cluster,
                 southbound: Optional[Link] = None,
                 controller_cores: int = 4,
                 costs: ControlPlaneCosts = ControlPlaneCosts()):
        self.sim = sim
        self.cluster = cluster
        self.costs = costs
        self.southbound = southbound or Link(
            sim, bandwidth_bps=1e9, latency_s=1e-3, name="southbound")
        self.controller_cpu = CpuResource(sim, cores=controller_cores,
                                          name="controller")
        self._distributor = Resource(sim, capacity=1)
        self.updates_pushed = 0
        self.bytes_pushed_total = 0
        #: Fault point: extra southbound latency per target (slow xDS
        #: distribution under load or packet loss).
        self.push_delay_s = 0.0
        #: Fault point: while set, southbound pushes block on this event
        #: (controller partitioned from its proxies).
        self._partition_heal = None

    # -- fault points (driven by repro.faults) -------------------------------
    def inject_push_delay(self, extra_s: float) -> None:
        """Add ``extra_s`` of southbound delay to every in-flight and
        future target configuration until :meth:`clear_push_delay`."""
        if extra_s < 0:
            raise ValueError(f"negative push delay {extra_s}")
        self.push_delay_s = extra_s

    def clear_push_delay(self) -> None:
        self.push_delay_s = 0.0

    @property
    def partitioned(self) -> bool:
        return self._partition_heal is not None

    def partition(self) -> None:
        """Cut the controller off from its proxies: target
        configurations stall before their southbound transfer until
        :meth:`heal_partition`. Idempotent."""
        if self._partition_heal is None:
            self._partition_heal = self.sim.event()

    def heal_partition(self) -> None:
        """End the partition; every stalled configuration resumes."""
        heal, self._partition_heal = self._partition_heal, None
        if heal is not None:
            heal.succeed()

    # -- config sizing ------------------------------------------------------
    def full_config_bytes(self) -> int:
        """Size of the complete mesh configuration set.

        Endpoint entries for every pod plus all route/security rules —
        the set that "ensures any pod can freely communicate with
        others if needed" (§2.1).
        """
        c = self.costs
        endpoints = self.cluster.pod_count * c.endpoint_bytes
        # Two rules per service is the paper's common case (a routing
        # policy plus a security admission).
        rules = 2 * len(self.cluster.services) * c.rule_bytes
        return c.envelope_bytes + endpoints + rules

    def targets_for_update(self, kind: str = "routing") -> List[ConfigTarget]:
        """Proxies to (re)configure on a mesh-wide update.

        ``kind`` is ``"routing"`` (policy change) or ``"pods"`` (endpoint
        churn); full-config architectures push the same set either way,
        Canal differentiates (identity configs only matter on pod churn).
        """
        raise NotImplementedError

    # -- push execution -------------------------------------------------------
    def push_update(self, kind: str = "routing"):
        """Process generator: run one update round → :class:`PushReport`.

        Builds contend on the controller CPU; transfers serialize on the
        southbound link; proxies apply in parallel.
        """
        report = PushReport(started_at=self.sim.now)
        targets = self.targets_for_update(kind)
        tracer = get_tracer()
        handle = None
        if tracer is not None:
            plane = getattr(self, "kind", "generic")
            handle = tracer.start(
                "config-push", layer="controlplane",
                source=f"controlplane/{plane}", start_s=self.sim.now,
                kind=kind, targets=len(targets))
        done_events = []
        for target in targets:
            done = self.sim.event()
            self.sim.process(
                self._configure_target(target, report, done, trace=handle),
                name=f"cfg-{target.name}")
            done_events.append(done)
        if done_events:
            yield self.sim.all_of(done_events)
        report.targets = len(targets)
        report.finished_at = self.sim.now
        if handle is not None:
            handle.finish(self.sim.now, status="ok",
                          total_bytes=report.total_bytes)
        self.updates_pushed += 1
        self.bytes_pushed_total += report.total_bytes
        telemetry = get_telemetry()
        if telemetry.enabled:
            plane = getattr(self, "kind", "generic")
            telemetry.inc("config_pushes_total", plane=plane, kind=kind)
            telemetry.inc("config_push_bytes_total",
                          amount=report.total_bytes, plane=plane)
            telemetry.inc("config_push_targets_total",
                          amount=report.targets, plane=plane)
            telemetry.observe("config_push_completion_seconds",
                              report.completion_s, plane=plane)
        return report

    def _configure_target(self, target: ConfigTarget, report: PushReport,
                          done, trace=None):
        costs = self.costs
        start = self.sim.now
        build_s = target.config_bytes * costs.build_cpu_per_byte_s
        push_s = target.config_bytes * costs.push_cpu_per_byte_s
        yield from self.controller_cpu.execute(build_s)
        yield from self.controller_cpu.execute(push_s)
        if self._partition_heal is not None:
            yield self._partition_heal
        if self.push_delay_s > 0.0:
            yield self.sim.timeout(self.push_delay_s)
        yield from self.southbound.transfer(target.config_bytes)
        with self._distributor.request() as claim:
            yield claim
            yield self.sim.timeout(costs.distribution_ack_s)
        yield self.sim.timeout(target.apply_s)
        report.total_bytes += target.config_bytes
        report.build_cpu_s += build_s
        report.push_cpu_s += push_s
        if trace is not None:
            trace.add(f"configure-{target.kind}", "controlplane",
                      start, self.sim.now,
                      source=f"target/{target.name}",
                      config_bytes=target.config_bytes,
                      apply_s=target.apply_s)
        get_telemetry().inc("config_target_acks_total", proxy=target.kind)
        done.succeed()

    def create_pods_and_configure(self, count: int, deployment: str):
        """Process generator: Fig 14's experiment verb.

        Creates ``count`` pods then runs the architecture's update
        round; a pod answers pings only once it is started *and* its
        mesh path is configured, so completion is startup followed by
        the configuration round.
        """
        deploy = self.cluster.deployments[deployment]
        self.cluster.scale_deployment(deployment,
                                      deploy.running_replicas + count)
        start = self.sim.now
        yield self.sim.timeout(self.costs.pod_startup_s
                               + self.costs.per_pod_startup_s * count)
        report = yield from self.push_update(kind="pods")
        report.started_at = start
        report.finished_at = self.sim.now
        return report


class IstioControlPlane(ControlPlane):
    """Full config to every per-pod sidecar."""

    kind = "istio"

    def targets_for_update(self, kind: str = "routing") -> List[ConfigTarget]:
        full = self.full_config_bytes()
        size = int(full * self.costs.sidecar_scope)
        return [ConfigTarget(name=f"sidecar-{pod_name}", kind="sidecar",
                             config_bytes=size,
                             apply_s=self.costs.sidecar_apply_s)
                for pod_name in self.cluster.pods]


class AmbientControlPlane(ControlPlane):
    """Per-node ztunnels + per-service waypoints."""

    kind = "ambient"

    def targets_for_update(self, kind: str = "routing") -> List[ConfigTarget]:
        full = self.full_config_bytes()
        targets = [ConfigTarget(name=f"ztunnel-{node.name}", kind="ztunnel",
                                config_bytes=int(full * self.costs.ztunnel_scope),
                                apply_s=self.costs.ztunnel_apply_s)
                   for node in self.cluster.worker_nodes]
        targets.extend(
            ConfigTarget(name=f"waypoint-{service}", kind="waypoint",
                         config_bytes=int(full * self.costs.waypoint_scope),
                         apply_s=self.costs.waypoint_apply_s)
            for service in self.cluster.services)
        return targets
