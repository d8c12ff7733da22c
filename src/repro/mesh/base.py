"""The common service-mesh interface every architecture implements.

A mesh attaches to a (single-tenant) K8s cluster, and then serves the
two dataplane verbs the workload drivers use:

* ``open_connection(client_pod, service)`` — a process that establishes
  a (possibly mTLS) connection along the architecture's path;
* ``request(connection, http_request)`` — a process that carries one
  request/response exchange and returns an :class:`HttpResponse`.

Every ``request`` has the same skeleton: ``_start_trace`` opens the
root span, the architecture's own path spends its proxy work and hops,
and every outcome, any status, returns through ``_respond``. So the
meshes differ only in *where* each per-request component runs.

It also exposes its CPU split into *user-cluster* and *infra*
resources — the split that the paper's intrusion/cost analysis (Figs 5,
13) is all about.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from ..k8s import Cluster, Pod
from ..obs.runtime import get_telemetry
from ..obs.trace import get_tracer
from ..simcore import Simulator, Summary
from .costs import DEFAULT_COSTS, MeshCostModel
from .http import HttpRequest, HttpResponse, RouteTable
from .policy import AuthorizationTable
from .proxy import Connection, ProxyTier

__all__ = ["ServiceMesh", "MeshError"]


class MeshError(RuntimeError):
    """Dataplane failure inside a mesh path."""


class ServiceMesh(abc.ABC):
    """Base class for Istio-style, Ambient-style, and Canal meshes."""

    name: str = "mesh"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS):
        self.sim = sim
        self.costs = costs
        self.cluster: Optional[Cluster] = None
        self.route_tables: Dict[str, RouteTable] = {}
        self.authorization = AuthorizationTable()
        self.latency = Summary(f"{self!r}-latency")

    # -- lifecycle ---------------------------------------------------------
    @abc.abstractmethod
    def attach(self, cluster: Cluster) -> None:
        """Bind to a cluster and set up the architecture's proxies."""

    # -- dataplane -----------------------------------------------------------
    @abc.abstractmethod
    def open_connection(self, client_pod: Pod, service: str):
        """Process generator → :class:`Connection` (handshake included)."""

    @abc.abstractmethod
    def request(self, connection: Connection, request: HttpRequest):
        """Process generator → :class:`HttpResponse`."""

    # -- one exchange's bookkeeping ------------------------------------------
    def _start_trace(self, connection: Connection, source: str = ""):
        """Begin one request trace (or ``None``), adopting any deferred
        TLS handshake spans from the connection's setup."""
        tracer = get_tracer()
        if tracer is None:
            return None
        handle = tracer.start(
            "request", layer="request",
            source=source or f"client/{connection.client}",
            service=connection.service, start_s=self.sim.now,
            mesh=self.name)
        if handle is None:
            return None
        pending = connection.meta.pop("pending_spans", None)
        if pending:
            # The handshake predates the request: widen the root so it
            # covers connection setup end to end.
            handle.start_s = min(handle.start_s,
                                 min(spec["start_s"] for spec in pending))
            for spec in pending:
                handle.add_tree(spec)
        return handle

    def _respond(self, status: int, start: float, connection: Connection,
                 handle, served_by: str = "", **annotations) -> HttpResponse:
        """Close one exchange begun at ``start``, with any status.

        A 200 counts toward the connection's ``requests_sent`` and the
        local latency summary the experiments read; every outcome lands
        in the ambient telemetry registry with per-mesh/per-result
        labels, and finishes the trace (``annotations`` go on its root).
        """
        now = self.sim.now
        latency = now - start
        if status == 200:
            connection.requests_sent += 1
            self.latency.add(latency)
        telemetry = get_telemetry()
        if telemetry.enabled:
            result = "ok" if status == 200 else str(status)
            telemetry.inc("mesh_requests_total", mesh=self.name,
                          result=result, service=connection.service)
            telemetry.observe("mesh_request_latency_seconds", latency,
                              mesh=self.name)
        if handle is not None:
            handle.finish(now, status=status, **annotations)
        return HttpResponse(status=status, latency_s=latency,
                            served_by=served_by)

    # -- resource accounting ---------------------------------------------------
    @abc.abstractmethod
    def user_tiers(self) -> List[ProxyTier]:
        """Proxy tiers consuming the user's purchased cluster resources."""

    def user_cpu_seconds(self) -> float:
        """Total user-cluster proxy CPU consumed so far."""
        return sum(tier.cpu.busy_time() for tier in self.user_tiers())

    def infra_cpu_seconds(self) -> float:
        """Provider-infrastructure CPU consumed so far: none, unless the
        mesh runs on a provider gateway (Canal, proxyless Canal)."""
        return 0.0

    # -- configuration ------------------------------------------------------------
    def set_route_table(self, table: RouteTable) -> None:
        self.route_tables[table.service] = table

    def pick_endpoint(self, service: str,
                      request: Optional[HttpRequest] = None) -> Pod:
        """Resolve a service (through its route table, if any) to a pod."""
        if self.cluster is None:
            raise MeshError(f"{self.name} is not attached to a cluster")
        if service not in self.cluster.services:
            raise MeshError(f"unknown service {service!r}")
        endpoints = self.cluster.endpoints(service)
        table = self.route_tables.get(service)
        if table is not None and request is not None:
            subset = table.route(request, self.sim.rng)
            subset_pods = [p for p in endpoints
                           if p.labels.get("version", "") == subset]
            if subset_pods:
                endpoints = subset_pods
        if not endpoints:
            raise MeshError(f"service {service!r} has no running endpoints")
        return self.sim.rng.choice(endpoints)

    def authorize(self, service: str, request: HttpRequest) -> bool:
        return self.authorization.check(service, request)

    def _require_cluster(self) -> Cluster:
        if self.cluster is None:
            raise MeshError(f"{self.name} is not attached to a cluster")
        return self.cluster

    def _location_of(self, pod: Pod):
        """Where ``pod``'s node sits in the topology."""
        node = self._require_cluster().node_by_name(pod.node_name)
        return node.host.location
