"""Failure injection and the hierarchical-recovery audit (§4.2, Fig 8).

The recovery hierarchy under test:

1. replica failure → surviving replicas of the backend absorb the load
   (sessions re-established after a brief disruption);
2. whole-backend failure → the service's other shuffle-shard backends
   (same AZ first) keep serving;
3. AZ failure → DNS steers to the service's backends in other AZs.

:class:`FailureInjector` drives the scenarios; ``availability_report``
asserts who is up after each. The injector is the execution layer of
``repro.faults``: :class:`~repro.faults.FaultEngine` compiles a
declarative :class:`~repro.faults.FaultPlan` down to :meth:`fail` /
:meth:`recover` calls at exact virtual times, but every method remains
directly usable by hand-driven experiments.

Injections are *idempotent per open failure*: failing a target that
already has an open :class:`FailureEvent` returns that event unchanged
instead of double-counting its disrupted sessions — the bug class a
fault plan with overlapping scopes (AZ crash + backend crash inside
it) would otherwise hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..resilience import QOD_FAILURES_PER_CRASH
from ..simcore import Simulator
from .gateway import MeshGateway

__all__ = ["FailureEvent", "FailureInjector", "availability_report"]


@dataclass
class FailureEvent:
    """Record of one injected failure (and optional recovery)."""

    scope: str               # "replica" | "backend" | "az"
    target: str
    failed_at: float
    recovered_at: Optional[float] = None
    #: Sessions disrupted when the failure hit.
    sessions_disrupted: int = 0


class FailureInjector:
    """Injects failures at the three hierarchy levels."""

    #: Re-established sessions come back after a short disruption.
    REPLICA_RECONNECT_S = 2.0

    def __init__(self, sim: Simulator, gateway: MeshGateway):
        self.sim = sim
        self.gateway = gateway
        self.events: List[FailureEvent] = []

    # -- event log -----------------------------------------------------------
    def open_event(self, scope: str, target: str) -> Optional[FailureEvent]:
        """The not-yet-recovered event for a target, if one exists."""
        for event in reversed(self.events):
            if (event.scope == scope and event.target == target
                    and event.recovered_at is None):
                return event
        return None

    def disrupted_by_scope(self) -> Dict[str, int]:
        """Total sessions disrupted, per failure scope."""
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.scope] = (totals.get(event.scope, 0)
                                   + event.sessions_disrupted)
        return totals

    # -- replica level -------------------------------------------------------
    def fail_replica(self, backend_name: str,
                     replica_name: str) -> FailureEvent:
        existing = self.open_event("replica", replica_name)
        if existing is not None:
            return existing
        backend = self.gateway.backend_by_name(backend_name)
        replica = backend.replica_by_name(replica_name)
        # Capture before the crash: the replica's session table dies
        # with the VM.
        disrupted = replica.sessions_used
        backend.fail_replica(replica_name)
        event = FailureEvent(scope="replica", target=replica_name,
                             failed_at=self.sim.now,
                             sessions_disrupted=disrupted)
        # Replica failures bypass the gateway's backend-level failure
        # API, so DNS health must be re-derived here: losing the last
        # replica of an AZ's backends must stop the AZ resolving.
        self.gateway.update_dns_health(backend.az)
        self.gateway.refresh_loads()
        self.events.append(event)
        return event

    def recover_replica(self, backend_name: str, replica_name: str) -> None:
        backend = self.gateway.backend_by_name(backend_name)
        backend.recover_replica(replica_name)
        self.gateway.update_dns_health(backend.az)
        self.gateway.refresh_loads()
        self._mark_recovered("replica", replica_name)

    # -- backend level ----------------------------------------------------------
    def fail_backend(self, backend_name: str) -> FailureEvent:
        existing = self.open_event("backend", backend_name)
        if existing is not None:
            return existing
        backend = self.gateway.backend_by_name(backend_name)
        disrupted = sum(r.sessions_used for r in backend.replicas)
        self.gateway.fail_backend(backend_name)
        event = FailureEvent(scope="backend", target=backend_name,
                             failed_at=self.sim.now,
                             sessions_disrupted=disrupted)
        self.events.append(event)
        return event

    def recover_backend(self, backend_name: str) -> None:
        self.gateway.recover_backend(backend_name)
        self._mark_recovered("backend", backend_name)

    # -- AZ level ------------------------------------------------------------------
    def fail_az(self, az: str) -> FailureEvent:
        existing = self.open_event("az", az)
        if existing is not None:
            return existing
        disrupted = sum(r.sessions_used
                        for b in self.gateway.backends_by_az.get(az, ())
                        for r in b.replicas)
        self.gateway.fail_az(az)
        event = FailureEvent(scope="az", target=az, failed_at=self.sim.now,
                             sessions_disrupted=disrupted)
        self.events.append(event)
        return event

    def recover_az(self, az: str) -> None:
        self.gateway.recover_az(az)
        self._mark_recovered("az", az)

    # -- query-of-death cascade (§4.2's shuffle-sharding motivator) ---------------
    def query_of_death(self, service_id: int) -> List[FailureEvent]:
        """Take down every backend of one service, one by one.

        With resilience policies installed on the gateway, the cascade
        is *contained*: each poisoned backend's death feeds the
        service's circuit breaker as windowed dispatch failures, and
        the cascade halts as soon as the breaker opens — the poison
        query stops being forwarded, so the remaining backends live.
        """
        policies = getattr(self.gateway, "resilience", None)
        events = []
        for backend in list(self.gateway.service_backends.get(service_id, ())):
            if policies is not None and not policies.allow_dispatch(
                    service_id, self.sim.now):
                break
            events.append(self.fail_backend(backend.name))
            if policies is not None:
                policies.record_dispatch(
                    service_id, self.sim.now, ok=False,
                    count=QOD_FAILURES_PER_CRASH)
        return events

    def recover_service(self, service_id: int) -> None:
        """Undo a query-of-death: recover every backend of the service."""
        for backend in list(self.gateway.service_backends.get(service_id, ())):
            self.recover_backend(backend.name)

    def _mark_recovered(self, scope: str, target: str) -> None:
        event = self.open_event(scope, target)
        if event is not None:
            event.recovered_at = self.sim.now


def availability_report(gateway: MeshGateway) -> Dict[int, bool]:
    """service_id → is the service currently reachable."""
    return {service_id: not gateway.service_outage(service_id)
            for service_id in gateway.service_backends}
