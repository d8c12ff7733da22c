"""The generic proxy engine: CPU tiers, connections, and path assembly.

A :class:`ProxyTier` is a pool of cores doing proxy work; request paths
acquire a core for each processing element's CPU cost, so queueing —
and therefore the latency knee at saturation that Figs 2 and 11 show —
emerges from contention rather than being scripted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..crypto.tls import MtlsSession
from ..obs.runtime import get_telemetry
from ..simcore import CpuResource, Event, Simulator

__all__ = ["ProxyTier", "Connection"]


class ProxyTier:
    """A named pool of proxy cores with request accounting."""

    def __init__(self, sim: Simulator, cores: int, name: str):
        self.sim = sim
        self.cpu = CpuResource(sim, cores=cores, name=name)
        self.name = name
        self.requests_processed = 0
        #: ``(registry, requests counter, work histogram)``: the
        #: children this tier emits into, bound per enabled registry.
        self._metrics: Optional[tuple] = None

    def work(self, cpu_seconds: float, trace=None, parent_id: int = 1,
             name: str = "proxy-work", layer: str = "l4", pod: str = "",
             bytes_out: int = 0, bytes_in: int = 0,
             after_s: float = 0.0) -> Event:
        """Hold one core for ``cpu_seconds``; returns the event that
        fires ``after_s`` after the work ends, valued with the time it
        ended (see :meth:`CpuResource.run`).

        With a ``trace`` (an :class:`repro.obs.trace.TraceHandle`), the
        whole occupancy — queueing for a core *plus* execution — is
        recorded as one span under ``parent_id``, so tier contention is
        visible in the per-layer latency waterfall. The span ends when
        the work does, and is added by a callback on the event, before
        the caller resumes.
        """
        done = self.cpu.run(cpu_seconds, after_s)
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
        if trace is not None:
            start = self.sim.now

            def add_span(event: Event) -> None:
                trace.add(name, layer, start, event.value,
                          parent_id=parent_id, source=self.name, pod=pod,
                          bytes_out=bytes_out, bytes_in=bytes_in,
                          cpu_s=cpu_seconds)
            done.callbacks.append(add_span)
        return done


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
    #: Meshes that price the hop per request (no mesh, Istio, Ambient)
    #: set it once at open: neither pod moves while the connection lives.
    one_way_s: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)
