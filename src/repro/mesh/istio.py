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
from .http import HttpRequest, HttpResponse
from .proxy import Connection, ProxyTier

__all__ = ["IstioMesh"]

#: Default sidecar resource request, matching Table 1's production
#: averages (~100 millicores and ~340 MB per pod).
SIDECAR_RESOURCES = ResourceRequest(cpu_millicores=100, memory_mb=340)


class IstioMesh(ServiceMesh):
    """Sidecar-per-pod architecture."""

    name = "istio"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS,
                 latency_model: Optional[LatencyModel] = None,
                 sidecar_cores_per_node: int = 2,
                 sidecar_resources: ResourceRequest = SIDECAR_RESOURCES):
        super().__init__(sim, costs)
        self.latency_model = latency_model or LatencyModel()
        self.sidecar_cores_per_node = sidecar_cores_per_node
        self.sidecar_resources = sidecar_resources
        self.ca = CertificateAuthority("istio-ca")
        self._tiers: Dict[str, ProxyTier] = {}
        self._engines: Dict[str, SoftwareAsymEngine] = {}
        self.sidecars_injected = 0

    # -- lifecycle -----------------------------------------------------------
    def attach(self, cluster: Cluster) -> None:
        self.cluster = cluster
        cluster.add_admission_hook(self._inject_sidecar)
        for node in cluster.worker_nodes:
            tier = ProxyTier(self.sim, cores=self.sidecar_cores_per_node,
                             name=f"istio-sidecars@{node.name}")
            self._tiers[node.name] = tier
            # Sidecars do their asymmetric crypto in software on the
            # sidecar CPU pool (Istio does not use QAT/AVX by default).
            self._engines[node.name] = SoftwareAsymEngine(
                self.sim, self.costs.crypto, new_cpu=True, cpu=tier.cpu)

    def _inject_sidecar(self, pod: Pod) -> None:
        pod.containers.append(Container(
            name="istio-proxy", resources=self.sidecar_resources,
            is_sidecar=True))
        self.sidecars_injected += 1

    def _tier_for(self, pod: Pod) -> ProxyTier:
        tier = self._tiers.get(pod.node_name or "")
        if tier is None:
            raise MeshError(f"pod {pod.name} is on an unmanaged node")
        return tier

    # -- dataplane ------------------------------------------------------------
    def open_connection(self, client_pod: Pod, service: str):
        """Pick an endpoint and run the sidecar-to-sidecar mTLS handshake."""
        server_pod = self.pick_endpoint(service)
        client_tier = self._tier_for(client_pod)
        server_tier = self._tier_for(server_pod)
        tracer = get_tracer()
        trace_sink = [] if tracer is not None else None
        one_way = self.latency_model.one_way(
            self._location_of(client_pod), self._location_of(server_pod))
        client_cert = self.ca.issue(
            f"spiffe://{client_pod.tenant}/{client_pod.name}",
            client_pod.tenant, self.sim.now + 86400.0)
        server_cert = self.ca.issue(
            f"spiffe://{server_pod.tenant}/{server_pod.name}",
            server_pod.tenant, self.sim.now + 86400.0)
        setup = self.costs.handshake_base_s + self.costs.connection_setup_s
        yield from client_tier.work(setup)
        yield from server_tier.work(setup)
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

    def request(self, connection: Connection, request: HttpRequest):
        """One request/response exchange through both sidecars."""
        cluster = self._require_cluster()
        start = self.sim.now
        tracer = get_tracer()
        handle = None
        if tracer is not None:
            handle = tracer.start("request", layer="request",
                                  source=f"client/{connection.client}",
                                  service=connection.service,
                                  start_s=start, mesh=self.name)
        if handle is not None:
            pending = connection.meta.pop("pending_spans", None)
            if pending:
                handle.start_s = min(
                    handle.start_s,
                    min(spec["start_s"] for spec in pending))
                for spec in pending:
                    handle.add_tree(spec)
        client_pod = cluster.pods[connection.client]
        server_pod = cluster.pods.get(connection.server_pod)
        if server_pod is None:
            self.observe_request(503, self.sim.now - start,
                                 connection.service)
            if handle is not None:
                handle.finish(self.sim.now, status=503)
            return HttpResponse(status=503, latency_s=self.sim.now - start)

        fixed_cost = (2 * self.costs.iptables_redirect_cpu_s()
                      + self.costs.symmetric_cost(request.total_bytes))

        def side_cost() -> float:
            return fixed_cost + sample_service_time(
                self.sim.rng, self.costs.istio_sidecar_l7_s,
                self.costs.istio_l7_sigma)

        # Client sidecar: redirect out + L7 + encrypt. Both sidecar
        # passes are full L7 proxies, so their spans land in the l7
        # layer (the sidecar has no split l4/l7 like Canal).
        yield from self._tier_for(client_pod).work(
            side_cost(), trace=handle, name="sidecar-l7", layer="l7",
            pod=client_pod.name, bytes_out=request.body_bytes,
            bytes_in=request.response_bytes)
        yield self.sim.timeout(connection.one_way_s)
        # Server sidecar: decrypt + L7 + authorization + redirect in.
        if not self.authorize(connection.service, request):
            self.observe_request(403, self.sim.now - start,
                                 connection.service)
            if handle is not None:
                handle.finish(self.sim.now, status=403)
            return HttpResponse(status=403, latency_s=self.sim.now - start)
        yield from self._tier_for(server_pod).work(
            side_cost(), trace=handle, name="sidecar-l7", layer="l7",
            pod=server_pod.name, bytes_out=request.response_bytes,
            bytes_in=request.body_bytes)
        # The application itself, then the response network hop
        # (response-side proxy work is folded into the per-side cost
        # above).
        app_start = self.sim.now
        yield self.sim.timeout(self.costs.app_service_time_s
                               + connection.one_way_s)
        if handle is not None:
            handle.add("app-exec", "app", app_start,
                       app_start + self.costs.app_service_time_s,
                       source=f"app/{server_pod.name}",
                       pod=server_pod.name)
        connection.requests_sent += 1
        latency = self.sim.now - start
        self.observe_request(200, latency, connection.service)
        if handle is not None:
            handle.finish(self.sim.now, status=200)
        return HttpResponse(status=200, latency_s=latency,
                            served_by=server_pod.name)

    # -- accounting ---------------------------------------------------------
    def user_tiers(self) -> List[ProxyTier]:
        return list(self._tiers.values())

    def proxy_count(self) -> int:
        """Number of managed proxies = number of sidecars = pods."""
        return self._require_cluster().pod_count

    def _location_of(self, pod: Pod):
        node = self._require_cluster().node_by_name(pod.node_name)
        return node.host.location
