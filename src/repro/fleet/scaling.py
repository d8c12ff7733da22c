"""Aggregate Reuse-vs-New scaling on the fluid fleet.

The strategy is :class:`repro.core.scaling.ScalingEngine`'s — trip on
water above the safety threshold, prefer *reusing* a cold backend
already deployed, fall back to deploying a *new* one, with lognormal
execution times anchored on the paper's Table 4 — but each operation
is narrower. The testbed engine searches every AZ the service spans
for a Reuse candidate and keeps extending until the service's hottest
backend is under its target water; this scaler searches only the hot
backend's AZ and extends the shard once, then waits out a per-service
cooldown. It drives the fluid model's entity arrays instead of
per-replica objects, and uses ``Simulator.call_later`` instead of a
generator process so a 10k-replica region never materializes a
scaling coroutine.

Completion extends the service's shuffle-shard combination, which the
model translates into (a) a new zero-population slot that the next
flow step starts filling (the fluid analogue of LB weight shift /
session turnover draining the hot backend) and (b) a control-plane
config push to every replica of the grown combination, accumulated in
``counters.config_pushes`` — the aggregate push fan-out the paper's
control plane absorbs during daily operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.replica import require_at_least
from ..core.scaling import ScalingTimings
from ..simcore import Simulator
from ..simcore.rng import lognormal_from_median
from .model import FleetModel

__all__ = ["FleetScaler", "FleetScalingEvent"]


@dataclass
class FleetScalingEvent:
    """One aggregate scaling operation (the Fig 17/18 unit, at scale)."""

    service_id: int
    kind: str                 # "reuse" | "new"
    triggered_at: float
    finished_at: float = 0.0
    below_threshold_at: float = 0.0
    backend: int = -1

    @property
    def execution_s(self) -> float:
        return self.finished_at - self.triggered_at

    @property
    def settle_s(self) -> float:
        return self.below_threshold_at - self.triggered_at


class FleetScaler:
    """Watches fluid water levels and grows shards Reuse-first."""

    def __init__(self, sim: Simulator, model: FleetModel,
                 timings: Optional[ScalingTimings] = None,
                 reuse_water_threshold: float = 0.2,
                 target_water: Optional[float] = None,
                 cooldown_s: float = 300.0):
        self.sim = sim
        self.model = model
        self.timings = timings or ScalingTimings()
        self.reuse_water_threshold = reuse_water_threshold
        #: Water level at which an operation counts as settled
        #: (Table 4's "below threshold"); default: the safety threshold
        #: that triggered it. The testbed engine drains to 0.35, but a
        #: fleet surge can outlast the drain — measuring against the
        #: trigger threshold keeps settle times comparable to Table 4.
        self.target_water = target_water
        #: Minimum gap between scaling operations on one service: a
        #: completed grow needs session turnover (theta = minutes) to
        #: shift load onto the new slot, so immediately re-triggering
        #: on the still-hot water would thrash (the paper's monitor
        #: evaluates on a minutes-scale window for the same reason).
        self.cooldown_s = cooldown_s
        require_at_least(self, "reuse_water_threshold", 0.0)
        require_at_least(self, "cooldown_s", 0.0)
        if target_water is not None:
            require_at_least(self, "target_water", 0.0)
        self.events: List[FleetScalingEvent] = []
        self._in_flight: Set[int] = set()
        self._settling: List[FleetScalingEvent] = []
        self._cooldown_until: Dict[int, float] = {}
        model.scaler = self

    # -- per-flow-step hook (called by FleetModel._tick) -------------------
    def on_tick(self) -> None:
        self._check_settled()
        model = self.model
        threshold = model.config.safety_threshold
        now = self.sim.now
        # Triggering changes no water level or up flag, so the hot
        # backends can be listed before any of them triggers.
        hot = [backend for backend, (level, up) in enumerate(zip(
                   model.backend_water, model.topology.backend_up))
               if up and level > threshold]
        for backend in hot:
            service = self._hottest_service_on(backend)
            if service is None or service in self._in_flight:
                continue
            if now < self._cooldown_until.get(service, 0.0):
                continue
            self._trigger(service, backend)

    def _check_settled(self) -> None:
        if not self._settling:
            return
        target = self.target_water
        if target is None:
            target = self.model.config.safety_threshold
        # One hottest-water evaluation per distinct service, not per
        # pending event — settle checks run every flow step.
        water = self.model.backend_water
        shards = self.model.topology.shards
        hottest: Dict[int, float] = {}
        for event in self._settling:
            service = event.service_id
            if service not in hottest:
                hottest[service] = max(map(water.__getitem__,
                                           shards[service]))
        still: List[FleetScalingEvent] = []
        for event in self._settling:
            if hottest[event.service_id] <= target:
                event.below_threshold_at = self.sim.now
            else:
                still.append(event)
        self._settling = still

    def _hottest_service_on(self, backend: int) -> Optional[int]:
        best: Optional[int] = None
        best_load = 0.0
        for service, slot in self.model._services_on[backend]:
            load = (self.model.slot_sessions[service][slot]
                    * self.model._weights[service]
                    * self.model.qod_factor[service])
            if load > best_load:
                best_load = load
                best = service
        return best

    # -- strategy selection (Reuse over New, like the paper) ---------------
    def _trigger(self, service: int, hot_backend: int) -> None:
        rng = self.sim.rng
        timings = self.timings
        reusable = self._find_reusable(service, hot_backend)
        if reusable is not None:
            kind, backend = "reuse", reusable
            delay = lognormal_from_median(
                rng, timings.reuse_median_s, timings.reuse_sigma)
        else:
            kind, backend = "new", -1
            delay = lognormal_from_median(
                rng, timings.new_median_s, timings.new_sigma)
        event = FleetScalingEvent(service_id=service, kind=kind,
                                  triggered_at=self.sim.now, backend=backend)
        self.events.append(event)
        self._in_flight.add(service)
        self.sim.call_later(delay, self._complete, event)

    def _find_reusable(self, service: int,
                       hot_backend: int) -> Optional[int]:
        """Coldest healthy backend in the hot AZ not already in the shard."""
        model = self.model
        topology = model.topology
        shard = topology.shards[service]
        up = topology.backend_up
        replicas = topology.healthy_replicas
        water = model.backend_water
        best: Optional[int] = None
        best_water = self.reuse_water_threshold
        # Water first: it rules out most of the AZ, and the conditions
        # are pure, so their order does not change the pick.
        for backend in topology.backends_in_az(topology.az_of[hot_backend]):
            level = water[backend]
            if (level < best_water and up[backend] and replicas[backend] >= 1
                    and backend not in shard):
                best_water = level
                best = backend
        return best

    # -- completion --------------------------------------------------------
    def _complete(self, event: FleetScalingEvent) -> None:
        model = self.model
        topology = model.topology
        backend = event.backend
        if event.kind == "new":
            az = topology.az_of[self._hot_backend_of(event.service_id)]
            backend = topology.add_backend(az)
            model.on_backend_added(backend)
            event.backend = backend
        if backend in topology.shards[event.service_id]:
            # A concurrent grow already added it; record completion only.
            event.finished_at = self.sim.now
        else:
            model.extend_service(event.service_id, backend)
            event.finished_at = self.sim.now
        self._in_flight.discard(event.service_id)
        self._cooldown_until[event.service_id] = (
            self.sim.now + self.cooldown_s)
        self._settling.append(event)

    def _hot_backend_of(self, service: int) -> int:
        shard = self.model.topology.shards[service]
        return max(shard, key=lambda b: self.model.backend_water[b])

    # -- reporting ---------------------------------------------------------
    def summary(self) -> dict:
        reuse = [e for e in self.events if e.kind == "reuse"]
        new = [e for e in self.events if e.kind == "new"]
        return {
            "total": len(self.events),
            "reuse": len(reuse),
            "new": len(new),
            "reuse_fraction": (len(reuse) / len(self.events)
                               if self.events else 0.0),
        }
