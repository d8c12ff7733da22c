"""Composable resilience policy sets for one gateway.

:class:`ResiliencePolicies` bundles a circuit breaker, a retry policy
or both behind one attach point (``MeshGateway.install_resilience``):
circuit breakers are per-service (lazily created on first dispatch),
and the retry policy's jitter stream is derived from the simulation
seed.

Nothing here is consulted unless a policy set is installed — the
ambient default is ``None`` and every integration point in
``core.gateway`` / ``core.canal`` / ``core.failure`` guards on it, so
unprotected runs are byte-identical with and without this package
imported.

Outcomes land in the ambient telemetry registry under
``resilience_*`` metric families, and the request-path integrations
annotate traces (``retries``, ``breaker`` state) so the causal tracer
shows *why* a request fast-failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..obs.runtime import get_telemetry
from .breaker import BreakerConfig, CircuitBreaker
from .retry import RetryConfig, RetryPolicy

__all__ = [
    "CircuitOpenError",
    "ResilienceConfig",
    "ResiliencePolicies",
]


class CircuitOpenError(RuntimeError):
    """Dispatch fast-failed: the service's circuit breaker is open."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Which mechanisms to install, and their tuning. ``None`` = off."""

    breaker: Optional[BreakerConfig] = None
    retry: Optional[RetryConfig] = None


class ResiliencePolicies:
    """One gateway's installed policy set."""

    def __init__(self, config: ResilienceConfig = ResilienceConfig(),
                 seed: object = 0, name: str = "gateway"):
        self.config = config
        self.name = name
        self.breakers: Dict[int, CircuitBreaker] = {}
        self.retry: Optional[RetryPolicy] = (
            RetryPolicy(config.retry, seed=seed,
                        label=f"repro.resilience.retry:{name}")
            if config.retry is not None else None)

    # -- circuit breaker -----------------------------------------------------
    def breaker_for(self, service_id: int) -> Optional[CircuitBreaker]:
        """The service's breaker (created lazily), or ``None`` if off."""
        if self.config.breaker is None:
            return None
        breaker = self.breakers.get(service_id)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker,
                                     name=f"service-{service_id}")
            self.breakers[service_id] = breaker
        return breaker

    def allow_dispatch(self, service_id: int, now: float) -> bool:
        """Breaker gate for one dispatch; counts fast-fails."""
        breaker = self.breaker_for(service_id)
        if breaker is None or breaker.allow(now):
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
        if breaker is None:
            return
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

    def breaker_state(self, service_id: int) -> str:
        breaker = self.breakers.get(service_id)
        return breaker.state if breaker is not None else "closed"

    # -- retry ---------------------------------------------------------------
    def note_retry(self, service_id: int) -> None:
        self.retry.note_retry()
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc("resilience_retries_total",
                          service=str(service_id))

    # -- inspection ----------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Plain-data snapshot for exhibits and tests (picklable)."""
        out: Dict[str, object] = {
            "breakers": {
                sid: {"state": breaker.state,
                      "times_opened": breaker.times_opened,
                      "fast_failures": breaker.fast_failures,
                      "transitions": list(breaker.transitions)}
                for sid, breaker in sorted(self.breakers.items())
            },
        }
        if self.retry is not None:
            out["retry"] = {"first_attempts": self.retry.first_attempts,
                            "retries": self.retry.retries,
                            "bound": self.retry.amplification_bound()}
        return out
