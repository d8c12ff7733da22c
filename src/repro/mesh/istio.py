"""Per-pod sidecar mesh — the Istio-style baseline (§2.1, Fig 1).

Every admitted pod gets a sidecar container injected (resource
intrusion, Table 1); its traffic is redirected through iptables into a
full-featured L7 proxy on both the client and server side, so each
request pays two iptables hand-offs and two heavy L7 passes on
user-cluster CPU.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..crypto import (
    Certificate,
    CertificateAuthority,
    SoftwareAsymEngine,
    mtls_handshake,
)
from ..k8s import Cluster, Container, Pod, ResourceRequest
from ..netsim import LatencyModel
from ..obs.trace import get_tracer
from ..simcore import Simulator
from .base import MeshError, ServiceMesh
from .costs import DEFAULT_COSTS, MeshCostModel, sample_service_time
from .http import HttpRequest
from .proxy import Connection, ProxyTier

__all__ = ["IstioMesh"]

#: Default sidecar resource request, matching Table 1's production
#: averages (~100 millicores and ~340 MB per pod).
SIDECAR_RESOURCES = ResourceRequest(cpu_millicores=100, memory_mb=340)

#: Lifetime of a workload certificate: Istio's default SVID TTL (24 h).
WORKLOAD_CERT_TTL_S = 86400.0


class SoftwareMtlsMesh(ServiceMesh):
    """A mesh whose per-node proxy pools run mTLS in software on their
    own cores: Istio's sidecars and Ambient's ztunnels.

    Subclasses add one pool per worker node in ``attach``
    (:meth:`_add_node_tier`) and open connections with
    :meth:`_mtls_connect`.
    """

    def __init__(self, sim: Simulator, costs: MeshCostModel,
                 latency_model: Optional[LatencyModel], ca_name: str):
        super().__init__(sim, costs)
        self.latency_model = latency_model or LatencyModel()
        self.ca = CertificateAuthority(ca_name)
        self._node_tiers: Dict[str, ProxyTier] = {}
        self._engines: Dict[str, SoftwareAsymEngine] = {}

    def _add_node_tier(self, node_name: str, cores: int, name: str) -> None:
        """One proxy pool on the node. Its asymmetric crypto runs in
        software on the pool's own CPU (no QAT/AVX by default)."""
        tier = ProxyTier(self.sim, cores=cores, name=name)
        self._node_tiers[node_name] = tier
        self._engines[node_name] = SoftwareAsymEngine(
            self.sim, self.costs.crypto, new_cpu=True, cpu=tier.cpu)

    def _tier_for(self, pod: Pod) -> ProxyTier:
        tier = self._node_tiers.get(pod.node_name or "")
        if tier is None:
            raise MeshError(f"pod {pod.name} is on an unmanaged node")
        return tier

    def _workload_cert(self, pod: Pod) -> Certificate:
        """The pod's certificate, issued once and reused by every
        connection (re-issued after expiry or a CA rotation)."""
        return self.ca.workload_certificate(
            f"spiffe://{pod.tenant}/{pod.name}", pod.tenant, self.sim.now,
            WORKLOAD_CERT_TTL_S)

    def _mtls_connect(self, client_pod: Pod, service: str):
        """Pick an endpoint and run the mTLS handshake between the two
        pods' node pools; the connection prices its one-way hop once."""
        server_pod = self.pick_endpoint(service)
        client_tier = self._tier_for(client_pod)
        server_tier = self._tier_for(server_pod)
        trace_sink = [] if get_tracer() is not None else None
        one_way = self.latency_model.one_way(
            self._location_of(client_pod), self._location_of(server_pod))
        client_cert = self._workload_cert(client_pod)
        server_cert = self._workload_cert(server_pod)
        setup = self.costs.handshake_base_s + self.costs.connection_setup_s
        yield client_tier.work(setup)
        yield server_tier.work(setup)
        result = yield from mtls_handshake(
            self.sim, self.ca, client_cert, server_cert,
            self._engines[client_pod.node_name],
            self._engines[server_pod.node_name],
            rtt_s=2.0 * one_way, costs=self.costs.crypto,
            trace_sink=trace_sink)
        if not result.ok:
            raise MeshError(f"handshake failed: {result.failure_reason}")
        connection = Connection(client=client_pod.name, service=service,
                                server_pod=server_pod.name,
                                established_at=self.sim.now,
                                session=result.session,
                                one_way_s=one_way)
        if trace_sink:
            connection.meta["pending_spans"] = trace_sink
        return connection


class IstioMesh(SoftwareMtlsMesh):
    """Sidecar-per-pod architecture."""

    name = "istio"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS,
                 latency_model: Optional[LatencyModel] = None,
                 sidecar_cores_per_node: int = 2,
                 sidecar_resources: ResourceRequest = SIDECAR_RESOURCES):
        super().__init__(sim, costs, latency_model, "istio-ca")
        self.sidecar_cores_per_node = sidecar_cores_per_node
        self.sidecar_resources = sidecar_resources
        self.sidecars_injected = 0
        #: One sidecar pass's two iptables hand-offs, request-independent.
        self._redirect_cpu_s = 2 * costs.iptables_redirect_cpu_s()

    # -- lifecycle -----------------------------------------------------------
    def attach(self, cluster: Cluster) -> None:
        self.cluster = cluster
        cluster.add_admission_hook(self._inject_sidecar)
        for node in cluster.worker_nodes:
            self._add_node_tier(node.name, self.sidecar_cores_per_node,
                                f"istio-sidecars@{node.name}")

    def _inject_sidecar(self, pod: Pod) -> None:
        pod.containers.append(Container(
            name="istio-proxy", resources=self.sidecar_resources,
            is_sidecar=True))
        self.sidecars_injected += 1

    # -- dataplane ------------------------------------------------------------
    def open_connection(self, client_pod: Pod, service: str):
        """Pick an endpoint and run the sidecar-to-sidecar mTLS handshake."""
        return (yield from self._mtls_connect(client_pod, service))

    def request(self, connection: Connection, request: HttpRequest):
        """One request/response exchange through both sidecars."""
        cluster = self._require_cluster()
        start = self.sim.now
        handle = self._start_trace(connection)
        client_pod = cluster.pods[connection.client]
        server_pod = cluster.pods.get(connection.server_pod)
        if server_pod is None:
            return self._respond(503, start, connection, handle)

        costs = self.costs
        fixed_cost = self._redirect_cpu_s + costs.symmetric_cost(
            request.total_bytes)

        # Client sidecar: redirect out + L7 + encrypt, then the hop.
        # Both sidecar passes are full L7 proxies, so their spans land
        # in the l7 layer (the sidecar has no split l4/l7 like Canal).
        yield self._tier_for(client_pod).work(
            fixed_cost + sample_service_time(
                self.sim.rng, costs.istio_sidecar_l7_s, costs.istio_l7_sigma),
            trace=handle, name="sidecar-l7", layer="l7",
            pod=client_pod.name, bytes_out=request.body_bytes,
            bytes_in=request.response_bytes,
            after_s=connection.one_way_s)
        # Server sidecar: decrypt + L7 + authorization + redirect in.
        if not self.authorize(connection.service, request):
            return self._respond(403, start, connection, handle)
        # Then the application itself, and the response network hop
        # (response-side proxy work is folded into the per-side cost
        # above).
        app_start = yield self._tier_for(server_pod).work(
            fixed_cost + sample_service_time(
                self.sim.rng, costs.istio_sidecar_l7_s, costs.istio_l7_sigma),
            trace=handle, name="sidecar-l7", layer="l7",
            pod=server_pod.name, bytes_out=request.response_bytes,
            bytes_in=request.body_bytes,
            after_s=costs.app_service_time_s + connection.one_way_s)
        if handle is not None:
            handle.add("app-exec", "app", app_start,
                       app_start + costs.app_service_time_s,
                       source=f"app/{server_pod.name}",
                       pod=server_pod.name)
        return self._respond(200, start, connection, handle,
                             served_by=server_pod.name)

    # -- accounting ---------------------------------------------------------
    def user_tiers(self) -> List[ProxyTier]:
        return list(self._node_tiers.values())

    def proxy_count(self) -> int:
        """Number of managed proxies = number of sidecars = pods."""
        return self._require_cluster().pod_count
