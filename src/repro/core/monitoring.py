"""Multi-indicator monitoring of the gateway (§4.2).

A DES process samples every backend's water level, every service's RPS,
session counts, and error codes on a fixed tick, keeping the time
series RCA needs and raising the three alert levels of the paper:
backend (water level over threshold), service (resources near
depletion for auto-scaling tenants), and tenant (user-cluster
saturation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..simcore import Simulator, TimeSeries
from .gateway import MeshGateway

__all__ = ["Alert", "GatewayMonitor"]


@dataclass(frozen=True)
class Alert:
    """One monitoring alert."""

    level: str        # "backend" | "service" | "tenant"
    subject: str      # backend name / service id / tenant name
    time: float
    value: float
    message: str = ""


class GatewayMonitor:
    """Periodic sampler + alert source for one gateway."""

    def __init__(self, sim: Simulator, gateway: MeshGateway,
                 interval_s: float = 1.0,
                 backend_alert_threshold: Optional[float] = None,
                 session_alert_threshold: float = 0.8,
                 service_alert_utilization: float = 0.85,
                 user_cluster_alert_utilization: float = 0.95):
        self.sim = sim
        self.gateway = gateway
        self.interval_s = interval_s
        self.backend_alert_threshold = (
            backend_alert_threshold
            if backend_alert_threshold is not None
            else gateway.config.safety_threshold)
        #: §6.2 Case #1: "user traffic suddenly saturated 80% of the
        #: backend sessions, triggering a backend-level alert".
        self.session_alert_threshold = session_alert_threshold
        self.service_alert_utilization = service_alert_utilization
        self.user_cluster_alert_utilization = user_cluster_alert_utilization
        self.backend_series: Dict[str, TimeSeries] = {}
        self.session_series: Dict[str, TimeSeries] = {}
        self.service_series: Dict[int, TimeSeries] = {}
        self.service_session_series: Dict[int, TimeSeries] = {}
        self.alerts: List[Alert] = []
        self._subscribers: List[Callable[[Alert], None]] = []
        #: External feed of user-cluster utilization per tenant (set by
        #: experiments that host the user cluster on our cloud).
        self.user_cluster_utilization: Dict[str, float] = {}
        self._alert_armed: Dict[str, bool] = {}
        self._running = False

    def subscribe(self, callback: Callable[[Alert], None]) -> None:
        self._subscribers.append(callback)

    def start(self) -> None:
        if self._running:
            raise RuntimeError("monitor already running")
        self._running = True
        self.sim.process(self._sampling_loop(), name="gateway-monitor")

    def _sampling_loop(self):
        while True:
            self.sample()
            yield self.sim.timeout(self.interval_s)

    def sample(self) -> None:
        """Take one sample of every indicator, then evaluate alerts.

        Recording strictly precedes alerting so that responders (and
        their RCA) always see series that include the current tick.
        """
        now = self.sim.now
        backend_levels = {}
        backend_sessions = {}
        for backend in self.gateway.all_backends:
            level = backend.water_level()
            backend_levels[backend.name] = level
            self.backend_series.setdefault(
                backend.name,
                TimeSeries(f"water-{backend.name}")).record(now, level)
            sessions = backend.session_utilization()
            backend_sessions[backend.name] = sessions
            self.session_series.setdefault(
                backend.name,
                TimeSeries(f"sessions-{backend.name}")).record(now, sessions)
        for service_id, rps in self.gateway.service_rps.items():
            self.service_series.setdefault(
                service_id, TimeSeries(f"rps-{service_id}")).record(now, rps)
        for service_id, sessions in self.gateway.service_sessions.items():
            self.service_session_series.setdefault(
                service_id,
                TimeSeries(f"sess-{service_id}")).record(now, float(sessions))

        for name, level in backend_levels.items():
            self._edge_alert(
                key=f"backend:{name}",
                firing=level > self.backend_alert_threshold,
                alert=Alert("backend", name, now, level,
                            f"water level {level:.2f} over "
                            f"{self.backend_alert_threshold:.2f}"))
        for name, sessions in backend_sessions.items():
            self._edge_alert(
                key=f"sessions:{name}",
                firing=sessions > self.session_alert_threshold,
                alert=Alert("backend", name, now, sessions,
                            f"session table {sessions:.2f} over "
                            f"{self.session_alert_threshold:.2f}"))
        for service_id in self.gateway.service_rps:
            self._evaluate_service_alert(service_id, now)
        for tenant, utilization in self.user_cluster_utilization.items():
            self._edge_alert(
                key=f"tenant:{tenant}",
                firing=utilization >= self.user_cluster_alert_utilization,
                alert=Alert("tenant", tenant, now, utilization,
                            "user cluster near saturation"))

    def _evaluate_service_alert(self, service_id: int, now: float) -> None:
        service = self.gateway.registry.services.get(service_id)
        if service is None or not service.tenant.auto_scaling:
            return
        backends = self.gateway.service_backends.get(service_id, ())
        healthy = [b for b in backends if b.is_healthy]
        if not healthy:
            return
        utilization = max(b.water_level() for b in healthy)
        self._edge_alert(
            key=f"service:{service_id}",
            firing=utilization >= self.service_alert_utilization,
            alert=Alert("service", str(service_id), now, utilization,
                        "auto-scaling service near resource depletion"))

    def _edge_alert(self, key: str, firing: bool, alert: Alert) -> None:
        """Raise on the rising edge only (no alert storms)."""
        was_firing = self._alert_armed.get(key, False)
        self._alert_armed[key] = firing
        if firing and not was_firing:
            self.alerts.append(alert)
            for subscriber in list(self._subscribers):
                subscriber(alert)

    # -- query helpers ----------------------------------------------------------
    def backend_water(self, backend_name: str) -> TimeSeries:
        return self.backend_series[backend_name]

    def recent_values(self, series: TimeSeries, window_s: float) -> List[float]:
        start = self.sim.now - window_s
        return [v for t, v in zip(series.times, series.values) if t >= start]
