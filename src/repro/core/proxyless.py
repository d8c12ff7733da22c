"""The cloud-based *proxyless* service mesh (Appendix B).

Some customers block all third-party access to their nodes — even
Canal's minimal on-node proxy is unacceptable. The proxyless variant
removes it entirely:

* **redirection** — with the user's permission, the cloud configures the
  tenant's DNS so service names resolve to the mesh gateway;
* **authentication** — through per-container virtual network interfaces
  (ENIs) whose embedded provenance the fabric verifies. Each ENI
  consumes node memory and an IP, so the per-node interface limit the
  paper calls out is easily hit. Authentication is token equality: like
  the open-source CNIs the paper mentions, nothing here guarantees that
  only the attached container presents the interface's token;
* **encryption** — semi-managed: either the user manages certificates
  (equivalent protection) or they trust the cloud and let the gateway
  terminate TLS;
* **observability** — *partial*: nothing can be collected on the user
  node; only the gateway-side view remains.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..k8s import Cluster, Pod
from ..mesh.base import MeshError
from ..mesh.costs import DEFAULT_COSTS, MeshCostModel
from ..mesh.http import HttpRequest
from ..mesh.proxy import Connection, ProxyTier
from ..netsim import ResolutionError
from ..simcore import Simulator
from .canal import GatewayMesh
from .gateway import MeshGateway, NoBackendAvailable
from .tenancy import TenantService

__all__ = ["Eni", "EniRegistry", "EniLimitExceeded", "ProxylessCanalMesh"]


class EniLimitExceeded(RuntimeError):
    """A node ran out of virtual-network-interface capacity."""


@dataclass(frozen=True)
class Eni:
    """A per-container virtual network interface with embedded identity."""

    eni_id: str
    pod_name: str
    node_name: str
    ip: str
    auth_token: str


class EniRegistry:
    """Per-node ENI allocation.

    ``max_per_node`` is the interface limit "easily hit" as containers
    grow; each interface costs ``memory_mb_per_eni`` of node memory.
    """

    def __init__(self, max_per_node: int = 20,
                 memory_mb_per_eni: int = 16):
        if max_per_node < 1:
            raise ValueError("need at least one ENI per node")
        self.max_per_node = max_per_node
        self.memory_mb_per_eni = memory_mb_per_eni
        self._by_pod: Dict[str, Eni] = {}
        self._per_node: Dict[str, int] = {}
        self._counter = 0

    def allocate(self, pod: Pod) -> Eni:
        node = pod.node_name or "unknown"
        if self._per_node.get(node, 0) >= self.max_per_node:
            raise EniLimitExceeded(
                f"node {node} reached its {self.max_per_node}-ENI limit")
        self._counter += 1
        token = hashlib.sha256(
            f"eni:{self._counter}:{pod.name}".encode()).hexdigest()
        eni = Eni(eni_id=f"eni-{self._counter}", pod_name=pod.name,
                  node_name=node, ip=pod.ip or "0.0.0.0", auth_token=token)
        self._by_pod[pod.name] = eni
        self._per_node[node] = self._per_node.get(node, 0) + 1
        return eni

    def release(self, pod_name: str) -> None:
        eni = self._by_pod.pop(pod_name, None)
        if eni is not None:
            self._per_node[eni.node_name] -= 1

    def eni_of(self, pod_name: str) -> Optional[Eni]:
        return self._by_pod.get(pod_name)

    def node_memory_mb(self, node_name: str) -> int:
        """Node memory consumed by interfaces (the paper's first issue)."""
        return self._per_node.get(node_name, 0) * self.memory_mb_per_eni

    def authenticate(self, claimed_pod: str, presented_token: str) -> bool:
        """Verify traffic provenance via the interface's embedded token.

        The check is token equality only: any co-resident workload that
        learned the token passes, as with Flannel/Calico, which do not
        guarantee that only the attached container uses the interface.
        """
        eni = self._by_pod.get(claimed_pod)
        if eni is None:
            return False
        return presented_token == eni.auth_token


class ProxylessCanalMesh(GatewayMesh):
    """Canal without the on-node proxy: DNS redirection + ENI authn."""

    name = "canal-proxyless"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS,
                 gateway: Optional[MeshGateway] = None,
                 gateway_az: str = "az1",
                 eni_registry: Optional[EniRegistry] = None):
        super().__init__(sim, costs, gateway, gateway_az)
        self.enis = eni_registry or EniRegistry()
        self._port_counter = 30000
        #: DNS names the cloud rewrote in the tenant's resolver.
        self.dns_redirections: Dict[str, str] = {}
        self.authn_failures = 0

    # -- lifecycle -----------------------------------------------------------
    def attach(self, cluster: Cluster) -> None:
        for pod in cluster.pods.values():
            self.enis.allocate(pod)
        super().attach(cluster)

    def _on_event(self, event) -> None:
        super()._on_event(event)
        if event.kind == "pod" and event.action == "added":
            self.enis.allocate(event.obj)
        elif event.kind == "pod" and event.action == "deleted":
            self.enis.release(event.name)

    def _register_service(self, service_name: str) -> TenantService:
        tenant_service = super()._register_service(service_name)
        # The DNS-redirection step: the service's cluster name now
        # resolves to the gateway instead of the cluster IP.
        self.dns_redirections[service_name] = (
            f"svc-{tenant_service.service_id}.mesh.gateway")
        return tenant_service

    # -- dataplane ------------------------------------------------------------
    def open_connection(self, client_pod: Pod, service: str):
        """DNS-redirect to the gateway; authenticate via the pod's ENI."""
        tenant_service = self.tenant_service(service)
        server_pod = self.pick_endpoint(service)
        eni = self.enis.eni_of(client_pod.name)
        if eni is None:
            raise MeshError(
                f"pod {client_pod.name} has no ENI — proxyless mode "
                f"requires one interface per container")
        if not self.enis.authenticate(client_pod.name, eni.auth_token):
            self.authn_failures += 1
            raise MeshError(f"ENI authentication failed for "
                            f"{client_pod.name}")
        # Gateway-managed TLS terminates at the gateway: one RTT setup.
        # User-managed certificates behave the same on the wire (the
        # crypto cost lands in the user's own app, outside the mesh).
        yield self.sim.timeout(2 * self.costs.canal_gateway_hop_s)
        connection = self._flow_connection(client_pod, server_pod,
                                           tenant_service, self.gateway_az)
        connection.meta["eni"] = eni
        return connection

    def request(self, connection: Connection, request: HttpRequest):
        """app → gateway (L7 + authz + TLS) → server app, no node proxy."""
        cluster = self._require_cluster()
        start = self.sim.now
        # Nothing can be collected on the user node, so the trace only
        # ever sees the gateway's L7 view — the "partial" observability
        # coverage of Appendix B, made visible.
        handle = self._start_trace(connection, source="gateway-only")
        server_pod = cluster.pods.get(connection.server_pod)
        if server_pod is None:
            return self._respond(503, start, connection, handle)
        hop = self.costs.canal_gateway_hop_s

        if not self.authorize(connection.service, request):
            return self._respond(403, start, connection, handle)

        yield self.sim.timeout(hop)
        try:
            # Then one intra-gateway hop per redirection hop in the
            # replica chain, the hop on to the server app, the app, and
            # the response back through the gateway.
            result = yield from self.gateway.process_request(
                connection.meta["service_id"], connection.meta["flow"],
                is_syn=connection.requests_sent == 0,
                client_az=connection.meta["client_az"], trace=handle,
                route_cache=connection.meta, hop_s=hop, onward_hops=3,
                onward_s=self.costs.app_service_time_s)
        except (NoBackendAvailable, ResolutionError):
            return self._respond(503, start, connection, handle)
        return self._respond(200, start, connection, handle,
                             served_by=result.replica.name)

    # -- accounting ---------------------------------------------------------
    def user_tiers(self) -> List[ProxyTier]:
        """No proxies on the user cluster at all."""
        return []

    @property
    def observability_coverage(self) -> str:
        """Only the gateway can collect data in proxyless mode."""
        return "partial"
