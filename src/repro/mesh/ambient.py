"""Sidecar-less split-proxy mesh — the Ambient-style baseline (§2.2).

Two proxy layers, both still inside the user cluster:

* a per-node *ztunnel* handling L4 + mTLS (HBONE) for every pod on the
  node;
* a per-service *waypoint* doing the single L7 pass, shared by all pods
  of that service (and therefore subject to the synchronized peak/valley
  effect the paper criticizes in Fig 5).

Traffic that needs L7 (80–95 % of customers, Table 3) takes
client-ztunnel → waypoint → server-ztunnel; L4-only services skip the
waypoint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..k8s import Cluster, Pod
from ..netsim import LatencyModel
from ..simcore import Simulator
from .costs import DEFAULT_COSTS, MeshCostModel, sample_service_time
from .http import HttpRequest
from .istio import SoftwareMtlsMesh
from .proxy import Connection, ProxyTier

__all__ = ["AmbientMesh"]


class AmbientMesh(SoftwareMtlsMesh):
    """Per-node L4 + per-service L7 architecture."""

    name = "ambient"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS,
                 latency_model: Optional[LatencyModel] = None,
                 ztunnel_cores_per_node: int = 1,
                 waypoint_pool_cores: int = 2):
        super().__init__(sim, costs, latency_model, "ambient-ca")
        self.ztunnel_cores_per_node = ztunnel_cores_per_node
        self.waypoint_pool_cores = waypoint_pool_cores
        self._waypoint_pool: Optional[ProxyTier] = None
        self._l7_services: Set[str] = set()
        self.waypoint_requests: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------
    def attach(self, cluster: Cluster) -> None:
        self.cluster = cluster
        for node in cluster.worker_nodes:
            self._add_node_tier(node.name, self.ztunnel_cores_per_node,
                                f"ztunnel@{node.name}")
        self._waypoint_pool = ProxyTier(
            self.sim, cores=self.waypoint_pool_cores, name="waypoints")
        # Every pre-existing and future service gets L7 by default; call
        # set_l7_enabled(service, False) for L4-only services.
        for service in cluster.services:
            self._l7_services.add(service)
        cluster.watch(self._on_event)

    def _on_event(self, event) -> None:
        if event.kind == "service" and event.action == "added":
            self._l7_services.add(event.name)

    def set_l7_enabled(self, service: str, enabled: bool) -> None:
        """Opt a service out of (or back into) waypoint L7 processing."""
        if enabled:
            self._l7_services.add(service)
        else:
            self._l7_services.discard(service)

    def l7_enabled(self, service: str) -> bool:
        return service in self._l7_services

    # -- dataplane ------------------------------------------------------------
    def open_connection(self, client_pod: Pod, service: str):
        """HBONE tunnel establishment between the two ztunnels."""
        return (yield from self._mtls_connect(client_pod, service))

    def request(self, connection: Connection, request: HttpRequest):
        """ztunnel → (waypoint) → ztunnel → app exchange."""
        cluster = self._require_cluster()
        start = self.sim.now
        handle = self._start_trace(connection)
        client_pod = cluster.pods[connection.client]
        server_pod = cluster.pods.get(connection.server_pod)
        if server_pod is None:
            return self._respond(503, start, connection, handle)

        ztunnel_cost = (self.costs.ambient_ztunnel_l4_s
                        + self.costs.symmetric_cost(request.total_bytes))

        # One intermediate hop to the waypoint (placed on a cluster
        # node, so an intra-AZ hop) and one onwards to the server; an
        # L4-only service goes straight to the server.
        l7 = self.l7_enabled(connection.service)
        yield self._tier_for(client_pod).work(
            ztunnel_cost, trace=handle, name="ztunnel-l4",
            pod=client_pod.name, bytes_out=request.body_bytes,
            bytes_in=request.response_bytes,
            after_s=(self.latency_model.intra_az if l7
                     else connection.one_way_s))
        if l7:
            if not self.authorize(connection.service, request):
                return self._respond(403, start, connection, handle)
            assert self._waypoint_pool is not None
            yield self._waypoint_pool.work(sample_service_time(
                self.sim.rng, self.costs.ambient_waypoint_l7_s,
                self.costs.ambient_l7_sigma), trace=handle,
                name="waypoint-l7", layer="l7",
                after_s=connection.one_way_s)
            self.waypoint_requests[connection.service] = (
                self.waypoint_requests.get(connection.service, 0) + 1)
        # Then the app, and the response hop.
        yield self._tier_for(server_pod).work(
            ztunnel_cost, trace=handle, name="ztunnel-l4",
            pod=server_pod.name, bytes_out=request.response_bytes,
            bytes_in=request.body_bytes,
            after_s=self.costs.app_service_time_s + connection.one_way_s)
        return self._respond(200, start, connection, handle,
                             served_by=server_pod.name)

    # -- accounting ---------------------------------------------------------
    def user_tiers(self) -> List[ProxyTier]:
        tiers = list(self._node_tiers.values())
        if self._waypoint_pool is not None:
            tiers.append(self._waypoint_pool)
        return tiers

    def proxy_count(self) -> int:
        """O(node + service): one ztunnel per node + one waypoint per
        L7-enabled service."""
        cluster = self._require_cluster()
        return len(cluster.worker_nodes) + len(self._l7_services)
