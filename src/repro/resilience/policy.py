"""Per-service circuit breakers for one gateway.

:class:`ResiliencePolicies` attaches through
``MeshGateway.install_resilience`` (``None`` by default) and creates
each service's breaker on first use. Only the fault engine's
query-of-death cascade and the invariant auditor read it, both guarded
on it, so unprotected runs are byte-identical with this package
imported.
Breaker outcomes land in ``resilience_breaker_*`` telemetry.
"""

from __future__ import annotations

from typing import Dict

from ..obs.runtime import get_telemetry
from .breaker import BreakerConfig, CircuitBreaker

__all__ = ["ResiliencePolicies"]


class ResiliencePolicies:
    """One gateway's installed breakers, one per service."""

    def __init__(self, breaker: BreakerConfig):
        self.config = breaker
        self.breakers: Dict[int, CircuitBreaker] = {}

    def breaker_for(self, service_id: int) -> CircuitBreaker:
        """The service's breaker, created on first use."""
        breaker = self.breakers.get(service_id)
        if breaker is None:
            breaker = CircuitBreaker(self.config,
                                     name=f"service-{service_id}")
            self.breakers[service_id] = breaker
        return breaker

    def allow_dispatch(self, service_id: int, now: float) -> bool:
        """Breaker gate for one dispatch; counts fast-fails."""
        if self.breaker_for(service_id).allow(now):
            return True
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc("resilience_breaker_fast_fail_total",
                          service=str(service_id))
        return False

    def record_dispatch(self, service_id: int, now: float, ok: bool,
                        count: int = 1) -> None:
        """Feed one dispatch outcome into the service's breaker."""
        breaker = self.breaker_for(service_id)
        before = len(breaker.transitions)
        if ok:
            breaker.record_success(now, count)
        else:
            breaker.record_failure(now, count)
        if len(breaker.transitions) > before:
            telemetry = get_telemetry()
            if telemetry.enabled:
                for _t, _from, to_state, _why in \
                        breaker.transitions[before:]:
                    telemetry.inc("resilience_breaker_transitions_total",
                                  service=str(service_id), to=to_state)

    def stats(self) -> Dict[str, object]:
        """Plain-data snapshot for exhibits and tests (picklable)."""
        return {
            "breakers": {
                sid: {"state": breaker.state,
                      "times_opened": breaker.times_opened,
                      "fast_failures": breaker.fast_failures,
                      "transitions": list(breaker.transitions)}
                for sid, breaker in sorted(self.breakers.items())
            },
        }
