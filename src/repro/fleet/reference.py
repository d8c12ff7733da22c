"""Per-session discrete reference model for validating the fluid tier.

:class:`SessionDES` subclasses :class:`~repro.fleet.model.FleetModel`
and overrides *only* the arrival/departure mechanics: sessions are
integer-counted, arrivals are Poisson draws per flow step, and every
admitted session schedules its own exponential departure event on the
simulator agenda. Topology, shuffle sharding, water-level aggregation,
the latency proxy, the fault surface, and the conservation ledger are
all inherited **unchanged** — so when ``fleet/validate.py`` compares
the two models on the same scenario and seed, any disagreement beyond
stochastic noise is a defect in the fluid approximation itself, not in
shared plumbing.

Disrupted-session bookkeeping uses per-slot generation counters
instead of event cancellation: a backend crash bumps the slot's
generation, and a departure event that arrives carrying a stale
generation is a no-op (its session was already counted as disrupted).
This keeps the agenda append-only — the same discipline ``Process``
uses for abandoned wait targets — and costs O(1) per fault regardless
of session count.
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import accumulate
from typing import List

from ..simcore import Simulator
from .config import FleetConfig, FleetDemand
from .model import FleetModel

__all__ = ["SessionDES", "poisson"]

#: Above this mean, per-unit Knuth sampling costs more than the normal
#: approximation's bias (O(1/sqrt(lam)) relative) is worth.
_POISSON_NORMAL_CUTOVER = 30.0


def poisson(rng: random.Random, lam: float) -> int:
    """Poisson draw without numpy: Knuth for small means, normal above."""
    if lam <= 0.0:
        return 0
    if lam < _POISSON_NORMAL_CUTOVER:
        limit = math.exp(-lam)
        k = 0
        product = rng.random()
        while product > limit:
            k += 1
            product *= rng.random()
        return k
    return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))


class SessionDES(FleetModel):
    """The fluid model's discrete twin: one event per session."""

    def __init__(self, sim: Simulator, config: FleetConfig,
                 demand: FleetDemand, region: str = "region-1",
                 warm_start: bool = True):
        super().__init__(sim, config, demand, region=region,
                         warm_start=warm_start)
        #: Generation per (service, slot): stale departures no-op.
        self._slot_gen: List[array] = [
            array("i", [0] * len(shard)) for shard in self.topology.shards]

    # -- session mechanics (the only overridden physics) -------------------
    def _seed_equilibrium(self) -> None:
        target = self.demand.target_sessions(self.sim.now)
        for service in range(self.config.services):
            scaled = target
            if self.demand_scale is not None:
                scaled = target * self.demand_scale(service, self.sim.now)
            count = poisson(self.sim.rng, scaled)
            self.counters.attempted += count
            healthy = self._healthy_slots(service)
            if not healthy:
                self.counters.rejected += count
                continue
            self.counters.admitted += count
            cum_weights = self._cum_weights(service, healthy)
            for _ in range(count):
                self._admit(service, healthy, cum_weights)

    def _advance_flows(self, t0: float, dt: float) -> None:
        rng = self.sim.rng
        base_rate = self.demand.arrival_rate(t0)
        scale_fn = self.demand_scale
        counters = self.counters
        for service in range(self.config.services):
            rate = base_rate
            if scale_fn is not None:
                rate = base_rate * scale_fn(service, t0)
            arrivals = poisson(rng, rate * dt)
            if arrivals == 0:
                continue
            counters.attempted += arrivals
            self._window_attempted += arrivals
            healthy = self._healthy_slots(service)
            if not healthy:
                counters.rejected += arrivals
                continue
            counters.admitted += arrivals
            self._window_admitted += arrivals
            cum_weights = self._cum_weights(service, healthy)
            for _ in range(arrivals):
                self._admit(service, healthy, cum_weights)
        self._aggregate()

    def _cum_weights(self, service: int, healthy: List[int]) -> List[float]:
        """Running sums of the service's LB weights. Headroom changes
        only when water is levelled, never while sessions are placed, so
        one list serves every session a step or the warm start admits."""
        return list(accumulate(self._slot_weights(service, healthy)))

    def _admit(self, service: int, healthy: List[int],
               cum_weights: List[float]) -> None:
        """Place one session by the same headroom-weighted LB split the
        fluid tier integrates (``FleetModel._slot_weights``), drawn
        discretely from the shared seeded RNG."""
        rng = self.sim.rng
        if len(healthy) == 1:
            slot = healthy[0]
        else:
            slot = rng.choices(healthy, cum_weights=cum_weights)[0]
        self.slot_sessions[service][slot] += 1.0
        lifetime = rng.expovariate(1.0 / self.demand.session_duration_s)
        self.sim.call_later(
            lifetime, self._depart,
            (service, slot, self._slot_gen[service][slot]))

    def _depart(self, token) -> None:
        service, slot, generation = token
        if generation != self._slot_gen[service][slot]:
            return      # session was disrupted by a fault; already counted
        self.slot_sessions[service][slot] -= 1.0
        self.counters.departed += 1.0

    # -- fault/growth hooks that must keep generations in sync -------------
    def _clear_slot(self, service: int, slot: int) -> float:
        dropped = super()._clear_slot(service, slot)
        self._slot_gen[service][slot] += 1
        return dropped

    def _append_slot(self, service: int) -> None:
        super()._append_slot(service)
        self._slot_gen[service].append(0)
