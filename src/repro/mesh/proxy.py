"""The generic proxy engine: CPU tiers, connections, and path assembly.

A :class:`ProxyTier` is a pool of cores doing proxy work; request paths
acquire a core for each processing element's CPU cost, so queueing —
and therefore the latency knee at saturation that Figs 2 and 11 show —
emerges from contention rather than being scripted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..crypto.tls import MtlsSession
from ..obs.runtime import get_telemetry
from ..simcore import CpuResource, Simulator

__all__ = ["ProxyTier", "Connection", "ConnectionPool"]


class ProxyTier:
    """A named pool of proxy cores with request accounting."""

    def __init__(self, sim: Simulator, cores: int, name: str,
                 on_user_cluster: bool = True):
        self.sim = sim
        self.cpu = CpuResource(sim, cores=cores, name=name)
        self.name = name
        #: Whether this tier consumes resources the user purchased
        #: (true for sidecars/ztunnels/waypoints/on-node proxies; false
        #: for Canal's cloud-side gateway replicas).
        self.on_user_cluster = on_user_cluster
        self.requests_processed = 0
        #: ``(registry, requests counter, work histogram)``: the
        #: children this tier emits into, bound per enabled registry.
        self._metrics: Optional[tuple] = None

    def work(self, cpu_seconds: float, trace=None, parent_id: int = 1,
             name: str = "proxy-work", layer: str = "l4", pod: str = "",
             bytes_out: int = 0, bytes_in: int = 0):
        """Process generator: hold one core for ``cpu_seconds``.

        With a ``trace`` (an :class:`repro.obs.trace.TraceHandle`), the
        whole occupancy — queueing for a core *plus* execution — is
        recorded as one span under ``parent_id``, so tier contention is
        visible in the per-layer latency waterfall.
        """
        if cpu_seconds < 0:
            raise ValueError(f"negative work: {cpu_seconds}")
        self.requests_processed += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            metrics = self._metrics
            if metrics is None or metrics[0] is not telemetry:
                metrics = self._metrics = (
                    telemetry,
                    telemetry.metric("counter", "proxy_requests_total",
                                     tier=self.name),
                    telemetry.metric("histogram", "proxy_work_seconds",
                                     tier=self.name))
            metrics[1].inc()
            metrics[2].observe(cpu_seconds)
        if trace is None:
            yield from self.cpu.execute(cpu_seconds)
            return None
        start = self.sim.now
        yield from self.cpu.execute(cpu_seconds)
        return trace.add(name, layer, start, self.sim.now,
                         parent_id=parent_id, source=self.name, pod=pod,
                         bytes_out=bytes_out, bytes_in=bytes_in,
                         cpu_s=cpu_seconds)

    def utilization(self, since: float = 0.0) -> float:
        return self.cpu.utilization(since)

    @property
    def cores(self) -> int:
        return self.cpu.cores


@dataclass
class Connection:
    """An established client→service connection through the mesh."""

    client: str
    service: str
    server_pod: str
    established_at: float
    session: Optional[MtlsSession] = None
    requests_sent: int = 0
    #: One-way network latency between the client and server pods.
    #: Meshes that price the hop per request (Istio, Ambient) set it
    #: once at open: neither pod moves while the connection lives.
    one_way_s: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)


class ConnectionPool:
    """Per-(client, service) connection reuse.

    Persistent-connection workloads (Fig 11's wrk with 100 connections)
    open once and reuse; short-flow workloads (the HTTPS handshake
    experiments, Figs 27/28) skip the pool entirely.
    """

    def __init__(self):
        self._connections: Dict[Tuple[str, str], Connection] = {}
        self.hits = 0
        self.misses = 0

    def get(self, client: str, service: str) -> Optional[Connection]:
        connection = self._connections.get((client, service))
        if connection is None:
            self.misses += 1
            get_telemetry().inc("connection_pool_lookups_total",
                                result="miss")
        else:
            self.hits += 1
            get_telemetry().inc("connection_pool_lookups_total", result="hit")
        return connection

    def put(self, connection: Connection) -> None:
        self._connections[(connection.client, connection.service)] = connection

    def invalidate(self, client: str, service: str) -> None:
        self._connections.pop((client, service), None)

    def invalidate_server(self, server_pod: str) -> int:
        """Drop every connection pinned to a failed server pod."""
        doomed = [key for key, conn in self._connections.items()
                  if conn.server_pod == server_pod]
        for key in doomed:
            del self._connections[key]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._connections)
