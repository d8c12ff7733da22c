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

from ..crypto import CertificateAuthority, SoftwareAsymEngine, mtls_handshake
from ..k8s import Cluster, Pod
from ..netsim import LatencyModel
from ..simcore import Simulator
from .base import MeshError, ServiceMesh
from .costs import DEFAULT_COSTS, MeshCostModel, sample_service_time
from .http import HttpRequest, HttpResponse
from .proxy import Connection, ProxyTier

__all__ = ["AmbientMesh"]


class AmbientMesh(ServiceMesh):
    """Per-node L4 + per-service L7 architecture."""

    name = "ambient"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS,
                 latency_model: Optional[LatencyModel] = None,
                 ztunnel_cores_per_node: int = 1,
                 waypoint_pool_cores: int = 2):
        super().__init__(sim, costs)
        self.latency_model = latency_model or LatencyModel()
        self.ztunnel_cores_per_node = ztunnel_cores_per_node
        self.waypoint_pool_cores = waypoint_pool_cores
        self.ca = CertificateAuthority("ambient-ca")
        self._ztunnels: Dict[str, ProxyTier] = {}
        self._engines: Dict[str, SoftwareAsymEngine] = {}
        self._waypoint_pool: Optional[ProxyTier] = None
        self._l7_services: Set[str] = set()
        self.waypoint_requests: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------
    def attach(self, cluster: Cluster) -> None:
        self.cluster = cluster
        for node in cluster.worker_nodes:
            tier = ProxyTier(self.sim, cores=self.ztunnel_cores_per_node,
                             name=f"ztunnel@{node.name}")
            self._ztunnels[node.name] = tier
            self._engines[node.name] = SoftwareAsymEngine(
                self.sim, self.costs.crypto, new_cpu=True, cpu=tier.cpu)
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
    def _ztunnel_for(self, pod: Pod) -> ProxyTier:
        tier = self._ztunnels.get(pod.node_name or "")
        if tier is None:
            raise MeshError(f"pod {pod.name} is on an unmanaged node")
        return tier

    def open_connection(self, client_pod: Pod, service: str):
        """HBONE tunnel establishment between the two ztunnels."""
        server_pod = self.pick_endpoint(service)
        one_way = self.latency_model.one_way(
            self._location_of(client_pod), self._location_of(server_pod))
        client_cert = self.ca.issue(
            f"spiffe://{client_pod.tenant}/{client_pod.name}",
            client_pod.tenant, self.sim.now + 86400.0)
        server_cert = self.ca.issue(
            f"spiffe://{server_pod.tenant}/{server_pod.name}",
            server_pod.tenant, self.sim.now + 86400.0)
        setup = self.costs.handshake_base_s + self.costs.connection_setup_s
        yield from self._ztunnel_for(client_pod).work(setup)
        yield from self._ztunnel_for(server_pod).work(setup)
        result = yield from mtls_handshake(
            self.sim, self.ca, client_cert, server_cert,
            self._engines[client_pod.node_name],
            self._engines[server_pod.node_name],
            rtt_s=2.0 * one_way, costs=self.costs.crypto)
        if not result.ok:
            raise MeshError(f"handshake failed: {result.failure_reason}")
        connection = Connection(client=client_pod.name, service=service,
                                server_pod=server_pod.name,
                                established_at=self.sim.now,
                                session=result.session,
                                one_way_s=one_way)
        return connection

    def request(self, connection: Connection, request: HttpRequest):
        """ztunnel → (waypoint) → ztunnel → app exchange."""
        cluster = self._require_cluster()
        start = self.sim.now
        client_pod = cluster.pods[connection.client]
        server_pod = cluster.pods.get(connection.server_pod)
        if server_pod is None:
            self.observe_request(503, self.sim.now - start,
                                 connection.service)
            return HttpResponse(status=503, latency_s=self.sim.now - start)

        ztunnel_cost = (self.costs.ambient_ztunnel_l4_s
                        + self.costs.symmetric_cost(request.total_bytes))

        yield from self._ztunnel_for(client_pod).work(ztunnel_cost)
        if self.l7_enabled(connection.service):
            # One intermediate hop to the waypoint (placed on a cluster
            # node, so an intra-AZ hop) and one onwards to the server.
            yield self.sim.timeout(self.latency_model.intra_az)
            if not self.authorize(connection.service, request):
                self.observe_request(403, self.sim.now - start,
                                     connection.service)
                return HttpResponse(status=403, latency_s=self.sim.now - start)
            assert self._waypoint_pool is not None
            yield from self._waypoint_pool.work(sample_service_time(
                self.sim.rng, self.costs.ambient_waypoint_l7_s,
                self.costs.ambient_l7_sigma))
            self.waypoint_requests[connection.service] = (
                self.waypoint_requests.get(connection.service, 0) + 1)
        yield self.sim.timeout(connection.one_way_s)
        yield from self._ztunnel_for(server_pod).work(ztunnel_cost)
        # The app, then the response hop.
        yield self.sim.timeout(self.costs.app_service_time_s
                               + connection.one_way_s)
        connection.requests_sent += 1
        latency = self.sim.now - start
        self.observe_request(200, latency, connection.service)
        return HttpResponse(status=200, latency_s=latency,
                            served_by=server_pod.name)

    # -- accounting ---------------------------------------------------------
    def user_tiers(self) -> List[ProxyTier]:
        tiers = list(self._ztunnels.values())
        if self._waypoint_pool is not None:
            tiers.append(self._waypoint_pool)
        return tiers

    def proxy_count(self) -> int:
        """O(node + service): one ztunnel per node + one waypoint per
        L7-enabled service."""
        cluster = self._require_cluster()
        return len(cluster.worker_nodes) + len(self._l7_services)

    def _location_of(self, pod: Pod):
        node = self._require_cluster().node_by_name(pod.node_name)
        return node.host.location
