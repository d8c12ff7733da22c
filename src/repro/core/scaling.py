"""Precise resource scaling: Reuse and New (§4.3, Figs 17/18, Table 4).

Two strategies, tried in order:

* **Reuse** — extend the service onto an existing same-AZ backend whose
  water level is low (< 20 %). Fast: a configuration push plus LB
  rebuild, tens of seconds end to end (paper P50 ≈ 55 s from executing
  the operation to the water level dropping below threshold).
* **New** — deploy a fresh backend (VM creation, image load, network
  setup, registration with the resource pool) and extend onto it.
  Slow: P50 ≈ 17 min.

Reuse searches every AZ the service spans and keeps extending until
the service's hottest backend is under ``target_water``. The fleet
tier's :class:`repro.fleet.scaling.FleetScaler` runs the same two
strategies but narrower: it searches only the hot backend's AZ and
extends once per operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..simcore import Simulator
from ..simcore.rng import lognormal_from_median
from .backend import Backend
from .gateway import MeshGateway
from .replica import require_at_least

__all__ = ["ScalingTimings", "ScalingEvent", "ScalingEngine"]


@dataclass(frozen=True)
class ScalingTimings:
    """Duration distributions of the two strategies (lognormal medians).

    Anchored on Table 4: Reuse executed 10:06:48 → finished 10:07:11
    (23 s) with the water level below threshold at 10:08:02; New
    executed 19:20:49 → finished 19:38:19 (17.5 min), below threshold
    one monitor tick later.
    """

    reuse_median_s: float = 25.0
    reuse_sigma: float = 0.45
    new_median_s: float = 17.0 * 60.0
    new_sigma: float = 0.25
    #: Load actually drains through LB convergence + session turnover.
    settle_median_s: float = 30.0
    settle_sigma: float = 0.5


@dataclass
class ScalingEvent:
    """Record of one scaling operation (the Fig 17/18 unit)."""

    service_id: int
    kind: str                 # "reuse" | "new"
    triggered_at: float
    executed_at: float = 0.0
    finished_at: float = 0.0
    below_threshold_at: float = 0.0
    backend_name: str = ""

    @property
    def completion_s(self) -> float:
        """Execute → below-threshold span (what Fig 17's CDF plots)."""
        return self.below_threshold_at - self.executed_at


class ScalingEngine:
    """Executes precise scaling for one gateway."""

    def __init__(self, sim: Simulator, gateway: MeshGateway,
                 timings: ScalingTimings = ScalingTimings(),
                 reuse_water_threshold: float = 0.2,
                 target_water: float = 0.35,
                 max_extensions: int = 12):
        self.sim = sim
        self.gateway = gateway
        self.timings = timings
        self.reuse_water_threshold = reuse_water_threshold
        #: Precise scaling sizes the operation: backends are added until
        #: the service's hottest backend is predicted below this level.
        self.target_water = target_water
        require_at_least(self, "reuse_water_threshold", 0.0)
        require_at_least(self, "target_water", 0.0)
        self.max_extensions = max_extensions
        self.events: List[ScalingEvent] = []
        self._in_flight: set = set()

    # -- candidate search ------------------------------------------------------
    def find_reusable_backend(self, service_id: int) -> Optional[Backend]:
        """A same-AZ, low-water backend not already hosting the service."""
        service_backends = self.gateway.service_backends.get(service_id, ())
        service_azs = {b.az for b in service_backends}
        candidates = [
            b for az in sorted(service_azs)
            for b in self.gateway.backends_by_az.get(az, ())
            if b.is_healthy and not b.hosts_service(service_id)
            and b.water_level() < self.reuse_water_threshold
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda b: b.water_level())

    def _busiest_az(self, service_id: int) -> str:
        backends = self.gateway.service_backends.get(service_id, ())
        if not backends:
            raise KeyError(f"service {service_id} has no backends")
        hottest = max(backends, key=lambda b: b.water_level())
        return hottest.az

    # -- execution ----------------------------------------------------------------
    def scale_service(self, service_id: int, triggered_at: Optional[float] = None):
        """Process generator: run one scaling operation → ScalingEvent.

        Concurrent triggers for the same service (several of its
        backends alerting at once) coalesce into one operation; the
        duplicates return ``None``.
        """
        if service_id in self._in_flight:
            return None
        self._in_flight.add(service_id)
        try:
            event = yield from self._scale_service(service_id, triggered_at)
        finally:
            self._in_flight.discard(service_id)
        return event

    def _scale_service(self, service_id: int,
                       triggered_at: Optional[float] = None):
        event = ScalingEvent(
            service_id=service_id, kind="reuse",
            triggered_at=self.sim.now if triggered_at is None else triggered_at,
            executed_at=self.sim.now)
        reusable = self.find_reusable_backend(service_id)
        rng = self.sim.rng
        if reusable is not None:
            yield self.sim.timeout(lognormal_from_median(
                rng, self.timings.reuse_median_s, self.timings.reuse_sigma))
            self.gateway.extend_service(service_id, reusable)
            event.kind = "reuse"
            event.backend_name = reusable.name
            # Precise scaling: keep extending onto low-water backends
            # until the service's hottest backend is under target (each
            # further extension is one more config push).
            extensions = 1
            while (extensions < self.max_extensions
                   and self._hottest_water(service_id) > self.target_water):
                extra = self.find_reusable_backend(service_id)
                if extra is None:
                    break
                yield self.sim.timeout(lognormal_from_median(
                    rng, self.timings.reuse_median_s / 4.0,
                    self.timings.reuse_sigma))
                self.gateway.extend_service(service_id, extra)
                extensions += 1
        else:
            yield self.sim.timeout(lognormal_from_median(
                rng, self.timings.new_median_s, self.timings.new_sigma))
            backend = self.gateway.deploy_backend(self._busiest_az(service_id))
            self.gateway.extend_service(service_id, backend)
            event.kind = "new"
            event.backend_name = backend.name
        event.finished_at = self.sim.now
        # LB convergence and session turnover before the hot backend's
        # water level is actually measured below threshold.
        yield self.sim.timeout(lognormal_from_median(
            rng, self.timings.settle_median_s, self.timings.settle_sigma))
        event.below_threshold_at = self.sim.now
        self.events.append(event)
        return event

    def _hottest_water(self, service_id: int) -> float:
        backends = [b for b in self.gateway.service_backends.get(
            service_id, ()) if b.is_healthy]
        if not backends:
            return 0.0
        return max(b.water_level() for b in backends)

    # -- reporting ---------------------------------------------------------------
    def events_of_kind(self, kind: str) -> List[ScalingEvent]:
        return [event for event in self.events if event.kind == kind]

    def completion_times(self, kind: str) -> List[float]:
        return [event.completion_s for event in self.events_of_kind(kind)]
