"""The no-mesh baseline: client and server directly connected.

Fig 10's "No service mesh" bar: no proxies, no redirection, no crypto —
just the network hops and the application itself. Implements the common
interface so the load drivers can run it unchanged.
"""

from __future__ import annotations

from typing import List

from ..k8s import Cluster, Pod
from ..simcore import Simulator
from .base import ServiceMesh
from .costs import DEFAULT_COSTS, MeshCostModel
from .http import HttpRequest
from .proxy import Connection, ProxyTier

__all__ = ["NoMesh"]


class NoMesh(ServiceMesh):
    """Direct pod-to-pod communication without any mesh dataplane."""

    name = "no-mesh"

    def __init__(self, sim: Simulator, costs: MeshCostModel = DEFAULT_COSTS,
                 latency_model=None):
        super().__init__(sim, costs)
        from ..netsim import LatencyModel
        self.latency_model = latency_model or LatencyModel()

    def attach(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def open_connection(self, client_pod: Pod, service: str):
        server_pod = self.pick_endpoint(service)
        return Connection(client=client_pod.name, service=service,
                          server_pod=server_pod.name,
                          established_at=self.sim.now,
                          one_way_s=self.latency_model.one_way(
                              self._location_of(client_pod),
                              self._location_of(server_pod)))
        yield  # pragma: no cover - makes this a generator

    def request(self, connection: Connection, request: HttpRequest):
        cluster = self._require_cluster()
        start = self.sim.now
        handle = self._start_trace(connection)
        server_pod = cluster.pods.get(connection.server_pod)
        if server_pod is None:
            return self._respond(503, start, connection, handle)
        yield self.sim.timeout(connection.one_way_s)
        yield self.sim.timeout(self.costs.app_service_time_s)
        yield self.sim.timeout(connection.one_way_s)
        return self._respond(200, start, connection, handle,
                             served_by=server_pod.name)

    def user_tiers(self) -> List[ProxyTier]:
        return []
