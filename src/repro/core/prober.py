"""Active health-check probing with the aggregation hierarchy (§6.1).

`repro.core.healthcheck` computes probe *volumes*; this module runs the
probes. A :class:`HealthCheckProxy` is the per-backend prober that the
replica-level aggregation elects: it probes the union of app endpoints
of all services configured on its backend, shares results with every
replica/core, and feeds endpoint health into routing decisions.

The trade-off the paper accepts is visible here: aggregation cuts probe
traffic by orders of magnitude at the cost of slightly slower detection
(one prober's interval instead of hundreds of independent probers
racing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..simcore import Simulator

__all__ = ["AppEndpoint", "ProbeRecord", "HealthCheckProxy"]


@dataclass
class AppEndpoint:
    """One user-app endpoint (a pod IP) that health checks target."""

    address: str
    healthy: bool = True
    probes_received: int = 0

    def probe(self) -> bool:
        self.probes_received += 1
        return self.healthy


@dataclass(frozen=True)
class ProbeRecord:
    """One health transition observed by a prober."""

    address: str
    healthy: bool
    time: float


class HealthCheckProxy:
    """The dedicated per-backend prober of the replica-level aggregation.

    Probes every target once per ``interval_s``; endpoints failing
    ``failure_threshold`` consecutive probes are marked down (and
    recoveries take ``recovery_threshold`` successes), with transitions
    pushed to subscribers — e.g. the gateway's endpoint selection.
    """

    def __init__(self, sim: Simulator, backend_name: str,
                 targets: List[AppEndpoint], interval_s: float = 1.0,
                 failure_threshold: int = 3, recovery_threshold: int = 2):
        if interval_s <= 0:
            raise ValueError("probe interval must be positive")
        if failure_threshold < 1 or recovery_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        self.sim = sim
        self.backend_name = backend_name
        self.targets = list(targets)
        self.interval_s = interval_s
        self.failure_threshold = failure_threshold
        self.recovery_threshold = recovery_threshold
        self.view: Dict[str, bool] = {t.address: True for t in targets}
        self._streak: Dict[str, int] = {t.address: 0 for t in targets}
        self.transitions: List[ProbeRecord] = []
        self._subscribers: List[Callable[[ProbeRecord], None]] = []
        self.probes_sent = 0
        self._running = False

    def subscribe(self, callback: Callable[[ProbeRecord], None]) -> None:
        self._subscribers.append(callback)

    def add_target(self, endpoint: AppEndpoint) -> None:
        self.targets.append(endpoint)
        self.view[endpoint.address] = True
        self._streak[endpoint.address] = 0

    def start(self) -> None:
        if self._running:
            raise RuntimeError("prober already running")
        self._running = True
        self.sim.process(self._probe_loop(),
                         name=f"prober-{self.backend_name}")

    def _probe_loop(self):
        while True:
            self.probe_round()
            yield self.sim.timeout(self.interval_s)

    def probe_round(self) -> None:
        """Probe every target once and update the health view."""
        for endpoint in self.targets:
            self.probes_sent += 1
            ok = endpoint.probe()
            address = endpoint.address
            currently_up = self.view[address]
            if ok == currently_up:
                self._streak[address] = 0
                continue
            self._streak[address] += 1
            threshold = (self.failure_threshold if currently_up
                         else self.recovery_threshold)
            if self._streak[address] >= threshold:
                self.view[address] = ok
                self._streak[address] = 0
                record = ProbeRecord(address=address, healthy=ok,
                                     time=self.sim.now)
                self.transitions.append(record)
                for subscriber in list(self._subscribers):
                    subscriber(record)

    def detection_latency_s(self) -> float:
        """Worst-case failure-detection time of this prober."""
        return self.interval_s * self.failure_threshold
