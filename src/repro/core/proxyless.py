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
from ..mesh.base import MeshError, ServiceMesh
from ..mesh.costs import DEFAULT_COSTS, MeshCostModel
from ..mesh.http import HttpRequest, HttpResponse
from ..mesh.proxy import Connection, ProxyTier
from ..netsim import FiveTuple, ResolutionError
from ..obs.trace import get_tracer
from ..simcore import Simulator
from .gateway import GatewayConfig, MeshGateway, NoBackendAvailable
from .replica import ReplicaConfig
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


class ProxylessCanalMesh(ServiceMesh):
    """Canal without the on-node proxy: DNS redirection + ENI authn."""

    name = "canal-proxyless"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS,
                 gateway: Optional[MeshGateway] = None,
                 gateway_az: str = "az1",
                 eni_registry: Optional[EniRegistry] = None):
        super().__init__(sim, costs)
        self.gateway_az = gateway_az
        self.gateway = gateway or self._testbed_gateway()
        self.enis = eni_registry or EniRegistry()
        self._services: Dict[str, TenantService] = {}
        self._port_counter = 30000
        #: DNS names the cloud rewrote in the tenant's resolver.
        self.dns_redirections: Dict[str, str] = {}
        self.authn_failures = 0

    def _testbed_gateway(self) -> MeshGateway:
        config = GatewayConfig(
            replicas_per_backend=1, backends_per_service_per_az=1,
            azs_per_service=1,
            replica=ReplicaConfig(cores=2,
                                  request_cost_s=self.costs.canal_gateway_l7_s))
        gateway = MeshGateway(self.sim, config)
        gateway.deploy_backend(self.gateway_az)
        return gateway

    # -- lifecycle -----------------------------------------------------------
    def attach(self, cluster: Cluster) -> None:
        self.cluster = cluster
        registry = self.gateway.registry
        if cluster.tenant not in registry.tenants:
            registry.add_tenant(cluster.tenant)
        for pod in cluster.pods.values():
            self.enis.allocate(pod)
        for service_name in list(cluster.services):
            self._register_service(service_name)
        cluster.watch(self._on_event)

    def _on_event(self, event) -> None:
        if event.kind == "service" and event.action == "added":
            self._register_service(event.name)
        elif event.kind == "pod" and event.action == "added":
            self.enis.allocate(event.obj)
        elif event.kind == "pod" and event.action == "deleted":
            self.enis.release(event.name)

    def _register_service(self, service_name: str) -> TenantService:
        cluster = self._require_cluster()
        if service_name in self._services:
            return self._services[service_name]
        k8s_service = cluster.services[service_name]
        registry = self.gateway.registry
        tenant = registry.tenants[cluster.tenant]
        tenant_service = registry.add_service(
            tenant, name=service_name,
            vpc_ip=k8s_service.cluster_ip or "0.0.0.0",
            port=k8s_service.port)
        self.gateway.register_service(tenant_service)
        self._services[service_name] = tenant_service
        # The DNS-redirection step: the service's cluster name now
        # resolves to the gateway instead of the cluster IP.
        self.dns_redirections[service_name] = (
            f"svc-{tenant_service.service_id}.mesh.gateway")
        return tenant_service

    def tenant_service(self, service_name: str) -> TenantService:
        if service_name not in self._services:
            raise MeshError(f"service {service_name!r} not registered")
        return self._services[service_name]

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
        self._port_counter += 1
        flow = FiveTuple(src_ip=client_pod.ip or "10.0.0.1",
                         src_port=self._port_counter,
                         dst_ip=tenant_service.vpc_ip,
                         dst_port=tenant_service.port)
        connection = Connection(client=client_pod.name, service=service,
                                server_pod=server_pod.name,
                                established_at=self.sim.now)
        connection.meta["flow"] = flow
        connection.meta["service_id"] = tenant_service.service_id
        connection.meta["client_az"] = self.gateway_az
        connection.meta["eni"] = eni
        return connection

    def request(self, connection: Connection, request: HttpRequest):
        """app → gateway (L7 + authz + TLS) → server app, no node proxy."""
        cluster = self._require_cluster()
        start = self.sim.now
        tracer = get_tracer()
        handle = None
        if tracer is not None:
            # Nothing can be collected on the user node, so the trace
            # only ever sees the gateway's L7 view — the "partial"
            # observability coverage of Appendix B, made visible.
            handle = tracer.start("request", layer="request",
                                  source="gateway-only",
                                  service=connection.service,
                                  start_s=start, mesh=self.name)
        server_pod = cluster.pods.get(connection.server_pod)
        if server_pod is None:
            if handle is not None:
                handle.finish(self.sim.now, status=503)
            return HttpResponse(status=503, latency_s=self.sim.now - start)
        service_id = connection.meta["service_id"]
        flow: FiveTuple = connection.meta["flow"]
        hop = self.costs.canal_gateway_hop_s

        if not self.authorize(connection.service, request):
            if handle is not None:
                handle.finish(self.sim.now, status=403)
            return HttpResponse(status=403, latency_s=self.sim.now - start)

        yield self.sim.timeout(hop)
        try:
            result = yield from self.gateway.process_request(
                service_id, flow, is_syn=connection.requests_sent == 0,
                client_az=connection.meta["client_az"], trace=handle,
                route_cache=connection.meta)
        except (NoBackendAvailable, ResolutionError):
            if handle is not None:
                handle.finish(self.sim.now, status=503)
            return HttpResponse(status=503, latency_s=self.sim.now - start)
        if result.redirection_hops:
            yield self.sim.timeout(result.redirection_hops * hop)
        yield self.sim.timeout(hop)
        yield self.sim.timeout(self.costs.app_service_time_s)
        yield self.sim.timeout(2 * hop)
        connection.requests_sent += 1
        latency = self.sim.now - start
        self.latency.add(latency)
        if handle is not None:
            handle.finish(self.sim.now, status=200)
        return HttpResponse(status=200, latency_s=latency,
                            served_by=result.replica.name)

    # -- accounting ---------------------------------------------------------
    def user_tiers(self) -> List[ProxyTier]:
        """No proxies on the user cluster at all."""
        return []

    def infra_cpu_seconds(self) -> float:
        total = 0.0
        for backend in self.gateway.all_backends:
            for replica in backend.replicas:
                if replica._cpu is not None:
                    total += replica._cpu.busy_time()
        return total

    @property
    def observability_coverage(self) -> str:
        """Only the gateway can collect data in proxyless mode."""
        return "partial"
