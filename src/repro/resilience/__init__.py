"""Mesh-side resilience policies, composable and deterministic.

The consolidated gateway must *contain* failures, not merely survive
them (query-of-death blast radius §7, health-check explosion §6.1).
``repro.faults`` injects chaos; this package is the other half — the
defensive mechanisms a production Canal deployment layers onto the
gateway:

* :class:`CircuitBreaker` (``breaker.py``) — closed/open/half-open on
  a rolling error rate; an open breaker fast-fails dispatch so a
  poisoned service stops crashing backends it can still reach;
* :class:`RetryPolicy` (``retry.py``) — exponential backoff with
  deterministic jitter drawn from a dedicated seeded stream (never
  ``sim.rng``: retry timing must not perturb the model, the same
  discipline as trace sampling).

:class:`ResiliencePolicies` (``policy.py``) composes either or both
and attaches at the gateway (``MeshGateway.install_resilience``).
Policies emit ``repro.obs`` metrics and trace annotations, and are
audited by :class:`~repro.faults.InvariantAuditor` checks (breaker
state-machine legality, retry-amplification cap). Every mechanism is a
pure function of (config, seed, event order), so protected chaos runs
stay byte-identical at any ``--jobs`` level.
"""

from .breaker import (
    BREAKER_STATES,
    QOD_FAILURES_PER_CRASH,
    BreakerConfig,
    BreakerIllegalTransition,
    CircuitBreaker,
    contained_cascade_depth,
)
from .policy import CircuitOpenError, ResilienceConfig, ResiliencePolicies
from .retry import RetryConfig, RetryPolicy, retry_storm_arrivals

__all__ = [
    "BREAKER_STATES",
    "BreakerConfig",
    "BreakerIllegalTransition",
    "CircuitBreaker",
    "CircuitOpenError",
    "QOD_FAILURES_PER_CRASH",
    "ResilienceConfig",
    "ResiliencePolicies",
    "RetryConfig",
    "RetryPolicy",
    "contained_cascade_depth",
    "retry_storm_arrivals",
]
