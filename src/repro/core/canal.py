"""Canal Mesh: on-node proxies + centralized gateway + key server (Fig 6).

The request path:

    app ─eBPF→ on-node proxy ─mTLS→ mesh gateway (L7) ─mTLS→ on-node
    proxy ─eBPF→ server app

User-cluster CPU pays only the two lightweight on-node passes; the L7
pass runs on gateway replicas (provider infrastructure). Asymmetric
crypto goes to the per-AZ key server; symmetric crypto stays local.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..crypto import SoftwareAsymEngine
from ..crypto.accelerator import BatchedAccelerator
from ..k8s import Cluster, Pod
from ..mesh.base import MeshError, ServiceMesh
from ..mesh.controlplane import ConfigTarget, ControlPlane
from ..mesh.costs import DEFAULT_COSTS, MeshCostModel
from ..mesh.http import HttpRequest
from ..mesh.proxy import Connection, ProxyTier
from ..netsim import FiveTuple, ResolutionError
from ..obs.trace import get_tracer
from ..simcore import Simulator
from .gateway import GatewayConfig, MeshGateway, NoBackendAvailable
from .key_server import FallbackEngine, KeyServerFleet
from .onnode import OnNodeProxy
from .replica import ReplicaConfig
from .tenancy import TenantService

__all__ = ["CanalMesh", "CanalControlPlane"]

#: Crypto-offload modes for the on-node proxies.
OFFLOAD_REMOTE = "remote"     # key server (the Canal default)
OFFLOAD_LOCAL = "local"       # AVX-512 batch engine on the node CPU
OFFLOAD_NONE = "software"     # plain software asymmetric crypto


class GatewayMesh(ServiceMesh):
    """What Canal and proxyless Canal share: tenancy at the mesh gateway.

    Attaching registers the cluster as a gateway tenant, and each of its
    services, present and future, as a tenant service the gateway
    routes. Connections carry the flow the gateway sees; subclasses set
    ``_port_counter``, the last source port handed out.
    """

    def __init__(self, sim: Simulator, costs: MeshCostModel,
                 gateway: Optional[MeshGateway], gateway_az: str):
        super().__init__(sim, costs)
        self.gateway_az = gateway_az
        self.gateway = gateway or self._testbed_gateway()
        self._services: Dict[str, TenantService] = {}

    def _testbed_gateway(self) -> MeshGateway:
        """A §5.1-scale gateway: one backend, 2 cores, in one AZ."""
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
        for service_name in list(cluster.services):
            self._register_service(service_name)
        cluster.watch(self._on_event)

    def _on_event(self, event) -> None:
        if event.kind == "service" and event.action == "added":
            self._register_service(event.name)

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
        return tenant_service

    def tenant_service(self, service_name: str) -> TenantService:
        if service_name not in self._services:
            raise MeshError(f"service {service_name!r} not registered")
        return self._services[service_name]

    # -- dataplane ------------------------------------------------------------
    def _flow_connection(self, client_pod: Pod, server_pod: Pod,
                         tenant_service: TenantService,
                         client_az: str) -> Connection:
        """A connection from the client pod's next source port to the
        service's VIP, with the flow and service ID the gateway routes."""
        self._port_counter += 1
        connection = Connection(client=client_pod.name,
                                service=tenant_service.name,
                                server_pod=server_pod.name,
                                established_at=self.sim.now)
        connection.meta["flow"] = FiveTuple(
            src_ip=client_pod.ip or "10.0.0.1", src_port=self._port_counter,
            dst_ip=tenant_service.vpc_ip, dst_port=tenant_service.port)
        connection.meta["service_id"] = tenant_service.service_id
        connection.meta["client_az"] = client_az
        return connection

    def close_connection(self, connection: Connection) -> None:
        """Release the connection's gateway-side flow/session state."""
        flow = connection.meta.get("flow")
        service_id = connection.meta.get("service_id")
        if flow is not None and service_id is not None:
            self.gateway.close_flow(service_id, flow)

    # -- accounting ---------------------------------------------------------
    def infra_cpu_seconds(self) -> float:
        """Gateway-side CPU (not the user's resources)."""
        total = 0.0
        for backend in self.gateway.all_backends:
            for replica in backend.replicas:
                if replica._cpu is not None:
                    total += replica._cpu.busy_time()
        return total


class CanalMesh(GatewayMesh):
    """The paper's architecture, end to end."""

    name = "canal"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS,
                 gateway: Optional[MeshGateway] = None,
                 key_fleet: Optional[KeyServerFleet] = None,
                 onnode_cores_per_node: int = 1,
                 gateway_az: str = "az1",
                 crypto_offload: str = OFFLOAD_REMOTE,
                 software_new_cpu: bool = True):
        super().__init__(sim, costs, gateway, gateway_az)
        if crypto_offload not in (OFFLOAD_REMOTE, OFFLOAD_LOCAL,
                                  OFFLOAD_NONE):
            raise ValueError(f"unknown offload mode {crypto_offload!r}")
        #: In software mode, whether the node CPU is a new model (the
        #: testbed's 8269CY) or an old one ("no offloading", Fig 23).
        self.software_new_cpu = software_new_cpu
        self.crypto_offload = crypto_offload
        self.onnode_cores_per_node = onnode_cores_per_node
        self.key_fleet = key_fleet or KeyServerFleet(sim, costs.crypto)
        if (crypto_offload == OFFLOAD_REMOTE
                and self.key_fleet.server_in(gateway_az) is None):
            self.key_fleet.deploy(gateway_az)
        self.onnode: Dict[str, OnNodeProxy] = {}
        self._server_channels: Set[str] = set()
        self._gateway_engine = None
        self._port_counter = 20000

    # -- lifecycle -----------------------------------------------------------
    def attach(self, cluster: Cluster) -> None:
        for node in cluster.worker_nodes:
            proxy = OnNodeProxy(self.sim, node.name, node.host.az.name,
                                cores=self.onnode_cores_per_node,
                                costs=self.costs)
            proxy.asym_engine = self._build_engine(proxy)
            self.onnode[node.name] = proxy
        self._gateway_engine = self._build_gateway_engine()
        super().attach(cluster)

    def _build_engine(self, proxy: OnNodeProxy):
        """The on-node asymmetric-crypto engine for the offload mode."""
        if self.crypto_offload == OFFLOAD_REMOTE:
            identity = f"node/{proxy.node_name}"
            server = self.key_fleet.server_in(proxy.az) \
                or self.key_fleet.server_in(self.gateway_az)
            if server is None:
                raise MeshError(f"no key server reachable from {proxy.az}")
            server.store_private_key(identity, f"secret-{identity}")
            remote = self.key_fleet.engine_for(
                requester=proxy.node_name, identity=identity,
                az=server.az)
            fallback = SoftwareAsymEngine(self.sim, self.costs.crypto,
                                          new_cpu=False, cpu=proxy.tier.cpu)
            return FallbackEngine(remote, fallback)
        if self.crypto_offload == OFFLOAD_LOCAL:
            return BatchedAccelerator(self.sim, self.costs.crypto,
                                      cpu=proxy.tier.cpu,
                                      name=f"avx-{proxy.node_name}")
        return SoftwareAsymEngine(self.sim, self.costs.crypto,
                                  new_cpu=self.software_new_cpu,
                                  cpu=proxy.tier.cpu)

    def _build_gateway_engine(self):
        """The gateway side always uses the shared in-AZ key server."""
        if self.crypto_offload != OFFLOAD_REMOTE:
            return SoftwareAsymEngine(self.sim, self.costs.crypto,
                                      new_cpu=True)
        server = self.key_fleet.server_in(self.gateway_az)
        server.store_private_key("gateway", "secret-gateway")
        remote = self.key_fleet.engine_for(
            requester="gateway", identity="gateway", az=self.gateway_az)
        fallback = SoftwareAsymEngine(self.sim, self.costs.crypto,
                                      new_cpu=True)
        return FallbackEngine(remote, fallback)

    # -- dataplane ------------------------------------------------------------
    def _proxy_for(self, pod: Pod) -> OnNodeProxy:
        proxy = self.onnode.get(pod.node_name or "")
        if proxy is None:
            raise MeshError(f"pod {pod.name} is on an unmanaged node")
        return proxy

    def open_connection(self, client_pod: Pod, service: str):
        """Establish the on-node↔gateway mTLS channel for this client."""
        tenant_service = self.tenant_service(service)
        server_pod = self.pick_endpoint(service)
        client_proxy = self._proxy_for(client_pod)
        server_proxy = self._proxy_for(server_pod)
        trace_sink = [] if get_tracer() is not None else None
        yield from self._handshake(client_proxy, trace_sink=trace_sink)
        # The server node's channel to the gateway is long-lived:
        # establish it the first time any connection lands there.
        if server_proxy.node_name not in self._server_channels:
            self._server_channels.add(server_proxy.node_name)
            yield from self._handshake(server_proxy, trace_sink=trace_sink)
        connection = self._flow_connection(client_pod, server_pod,
                                           tenant_service, client_proxy.az)
        if trace_sink:
            # Deferred TLS spans: adopted by the first request's trace.
            connection.meta["pending_spans"] = trace_sink
        return connection

    def _handshake(self, proxy: OnNodeProxy, trace_sink=None):
        """mTLS negotiation between an on-node proxy and the gateway.

        ``trace_sink`` (a list) collects one deferred span spec per
        handshake — setup / asymmetric-crypto / finished sub-spans —
        mirroring ``crypto.tls.mtls_handshake``'s decomposition.
        """
        start = self.sim.now
        yield proxy.handshake_work()
        setup_end = self.sim.now
        both = self.sim.all_of([proxy.asym_engine.submit(),
                                self._gateway_engine.submit()])
        yield both
        asym_end = self.sim.now
        yield self.sim.timeout(2 * 2 * self.costs.canal_gateway_hop_s)
        if trace_sink is not None:
            trace_sink.append({
                "name": "tls-handshake", "layer": "tls",
                "start_s": start, "end_s": self.sim.now,
                "source": f"node/{proxy.node_name}",
                "annotations": {"peer": "gateway",
                                "offload": self.crypto_offload},
                "children": [
                    {"name": "tls-setup", "layer": "tls",
                     "start_s": start, "end_s": setup_end},
                    {"name": "tls-asym", "layer": "tls",
                     "start_s": setup_end, "end_s": asym_end},
                    {"name": "tls-finished", "layer": "tls",
                     "start_s": asym_end, "end_s": self.sim.now},
                ]})

    def request(self, connection: Connection, request: HttpRequest):
        """on-node → gateway L7 → on-node → app exchange."""
        cluster = self._require_cluster()
        start = self.sim.now
        handle = self._start_trace(connection)
        client_pod = cluster.pods[connection.client]
        server_pod = cluster.pods.get(connection.server_pod)
        if server_pod is None:
            return self._respond(503, start, connection, handle)
        client_proxy = self._proxy_for(client_pod)
        server_proxy = self._proxy_for(server_pod)
        service_id = connection.meta["service_id"]
        flow: FiveTuple = connection.meta["flow"]
        hop = self.costs.canal_gateway_hop_s

        # Gateway-side admission: authz.
        if not self.authorize(connection.service, request):
            return self._respond(403, start, connection, handle)

        yield from client_proxy.process_message(
            client_pod.name, connection.service,
            request.body_bytes, request.response_bytes, trace=handle,
            after_s=hop)
        try:
            # Then the hop on to the server node, plus one intra-gateway
            # hop per redirection hop in the replica chain.
            result = yield from self.gateway.process_request(
                service_id, flow, is_syn=connection.requests_sent == 0,
                client_az=connection.meta["client_az"], trace=handle,
                route_cache=connection.meta, hop_s=hop, onward_hops=1)
        except (NoBackendAvailable, ResolutionError):
            return self._respond(503, start, connection, handle)
        # Then the app, and the response back through the gateway.
        app_start = yield from server_proxy.process_message(
            server_pod.name, connection.service,
            request.response_bytes, request.body_bytes, trace=handle,
            after_s=self.costs.app_service_time_s + 2 * hop)
        if handle is not None:
            handle.add("app-exec", "app", app_start,
                       app_start + self.costs.app_service_time_s,
                       source=f"app/{server_pod.name}",
                       pod=server_pod.name)
        return self._respond(200, start, connection, handle,
                             served_by=result.replica.name,
                             replica=result.replica.name)

    # -- accounting ---------------------------------------------------------
    def user_tiers(self) -> List[ProxyTier]:
        return [proxy.tier for proxy in self.onnode.values()]

    def proxy_count(self) -> int:
        """Configurable proxies from the user's perspective: on-node
        proxies only (the gateway is one shared logical target)."""
        return len(self.onnode) + 1


class CanalControlPlane(ControlPlane):
    """Pushes to the gateway; on-node proxies get rare identity configs."""

    kind = "canal"

    def targets_for_update(self, kind: str = "routing") -> List[ConfigTarget]:
        full = self.full_config_bytes()
        targets = [ConfigTarget(
            name="mesh-gateway", kind="gateway",
            config_bytes=int(full * self.costs.gateway_scope),
            apply_s=self.costs.gateway_apply_s)]
        if kind == "pods":
            # New pods need workload identities at their on-node proxies
            # (tiny, and only the affected nodes).
            targets.extend(ConfigTarget(
                name=f"onnode-{node.name}", kind="onnode",
                config_bytes=self.costs.onnode_identity_bytes,
                apply_s=self.costs.onnode_apply_s)
                for node in self.cluster.worker_nodes)
        return targets
