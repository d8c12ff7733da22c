"""Multi-indicator monitoring of the gateway (§4.2).

A DES process samples every backend's water level, every service's RPS,
session counts, and error codes on a fixed tick, keeping the time
series RCA needs and raising two of the paper's alert levels:
backend (water level over threshold) and service (resources near
depletion for auto-scaling tenants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..simcore import Simulator, TimeSeries
from .gateway import MeshGateway
from .replica import require_at_least

__all__ = ["Alert", "GatewayMonitor"]


@dataclass(frozen=True)
class Alert:
    """One monitoring alert."""

    level: str        # "backend" | "service"
    subject: str      # backend name / service id
    time: float
    value: float
    message: str = ""


def _series(table: Dict, key, prefix: str) -> TimeSeries:
    """The series stored under ``key``, created on first use."""
    series = table.get(key)
    if series is None:
        series = table[key] = TimeSeries(f"{prefix}-{key}")
    return series


class GatewayMonitor:
    """Periodic sampler + alert source for one gateway."""

    def __init__(self, sim: Simulator, gateway: MeshGateway,
                 interval_s: float = 1.0,
                 backend_alert_threshold: Optional[float] = None,
                 session_alert_threshold: float = 0.8,
                 service_alert_utilization: float = 0.85):
        self.sim = sim
        self.gateway = gateway
        self.interval_s = interval_s
        require_at_least(self, "interval_s", 0, inclusive=False)
        self.backend_alert_threshold = (
            backend_alert_threshold
            if backend_alert_threshold is not None
            else gateway.config.safety_threshold)
        #: §6.2 Case #1: "user traffic suddenly saturated 80% of the
        #: backend sessions, triggering a backend-level alert".
        self.session_alert_threshold = session_alert_threshold
        self.service_alert_utilization = service_alert_utilization
        self.backend_series: Dict[str, TimeSeries] = {}
        self.session_series: Dict[str, TimeSeries] = {}
        self.service_series: Dict[int, TimeSeries] = {}
        self.service_session_series: Dict[int, TimeSeries] = {}
        self.alerts: List[Alert] = []
        self._subscribers: List[Callable[[Alert], None]] = []
        self._alert_armed: Dict[Tuple[str, object], bool] = {}
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
        levels = []
        sessions = []
        for backend in self.gateway.all_backends:
            name = backend.name
            level = backend.water_level()
            levels.append((name, level))
            _series(self.backend_series, name, "water").record(now, level)
            used = backend.session_utilization()
            sessions.append((name, used))
            _series(self.session_series, name, "sessions").record(now, used)
        for service_id, rps in self.gateway.service_rps.items():
            _series(self.service_series, service_id, "rps").record(now, rps)
        for service_id, count in self.gateway.service_sessions.items():
            _series(self.service_session_series, service_id,
                    "sess").record(now, float(count))

        threshold = self.backend_alert_threshold
        for name, level in levels:
            if self._rising(("backend", name), level > threshold):
                self._raise(Alert("backend", name, now, level,
                                  f"water level {level:.2f} over "
                                  f"{threshold:.2f}"))
        threshold = self.session_alert_threshold
        for name, used in sessions:
            if self._rising(("sessions", name), used > threshold):
                self._raise(Alert("backend", name, now, used,
                                  f"session table {used:.2f} over "
                                  f"{threshold:.2f}"))
        for service_id in self.gateway.service_rps:
            self._evaluate_service_alert(service_id, now)

    def _evaluate_service_alert(self, service_id: int, now: float) -> None:
        service = self.gateway.registry.services.get(service_id)
        if service is None or not service.tenant.auto_scaling:
            return
        backends = self.gateway.service_backends.get(service_id, ())
        healthy = [b for b in backends if b.is_healthy]
        if not healthy:
            return
        utilization = max(b.water_level() for b in healthy)
        if self._rising(("service", service_id),
                        utilization >= self.service_alert_utilization):
            self._raise(Alert("service", str(service_id), now, utilization,
                              "auto-scaling service near resource "
                              "depletion"))

    def _rising(self, key: Tuple[str, object], firing: bool) -> bool:
        """Record one check; True on its rising edge only (no alert
        storms)."""
        was_firing = self._alert_armed.get(key, False)
        self._alert_armed[key] = firing
        return firing and not was_firing

    def _raise(self, alert: Alert) -> None:
        self.alerts.append(alert)
        for subscriber in list(self._subscribers):
            subscriber(alert)

    # -- query helpers ----------------------------------------------------------
    def recent_values(self, series: TimeSeries, window_s: float) -> List[float]:
        start = self.sim.now - window_s
        return [v for t, v in zip(series.times, series.values) if t >= start]
