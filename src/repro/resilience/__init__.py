"""Mesh-side resilience for ``fig8_resilience``, deterministic.

* :class:`CircuitBreaker` (``breaker.py``) — closed/open/half-open on
  a rolling error rate. :class:`ResiliencePolicies` (``policy.py``)
  holds one per service on a gateway, and a query-of-death cascade
  halts once its service's breaker opens
  (``FaultEngine._query_of_death``), so the service keeps the
  backends it can still reach (§7's blast radius). The request path
  never consults it.
* :func:`retry_storm_arrivals` (``retry.py``) — the reconnect
  histogram of a disrupted population under backoff jitter.

The auditor's ``breaker-legality`` check replays breaker transitions.
Everything is a pure function of (config, seed, event order), so
protected chaos runs stay byte-identical at any ``--jobs`` level.
"""

from .breaker import (
    BREAKER_STATES,
    QOD_FAILURES_PER_CRASH,
    BreakerConfig,
    BreakerIllegalTransition,
    CircuitBreaker,
    contained_cascade_depth,
)
from .policy import ResiliencePolicies
from .retry import retry_storm_arrivals

__all__ = [
    "BREAKER_STATES",
    "BreakerConfig",
    "BreakerIllegalTransition",
    "CircuitBreaker",
    "QOD_FAILURES_PER_CRASH",
    "ResiliencePolicies",
    "contained_cascade_depth",
    "retry_storm_arrivals",
]
