"""Fleet-tier configuration: topology shape, demand curves, rates.

The fluid tier must never silently drift from the per-session tier, so
a :class:`FleetConfig` does not redeclare any cost constant: it embeds
the same :class:`~repro.core.gateway.GatewayConfig` (and through it the
same :class:`~repro.core.replica.ReplicaConfig`) the testbed-scale
exhibits build gateways from, and every fluid rate — per-replica
capacity, per-request CPU cost, HTTPS request weight, the safety
threshold that trips scaling — is *derived* from those shared constants
at run time. Change ``ReplicaConfig.request_cost_s`` and both tiers
move together; the validation harness (``fleet/validate.py``) would
catch any formula drift between them.

:class:`FleetDemand` describes workload analytically (diurnal cosine
over a base concurrent-session population) so demand at any virtual
time is a pure function of the clock — no per-session trace is ever
materialized, which is what lets the tier reach O(1M) sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from ..core.gateway import GatewayConfig

__all__ = ["FleetConfig", "FleetDemand"]


def _require_finite(owner, name: str) -> None:
    value = getattr(owner, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class FleetDemand:
    """Analytic session demand for one region's services.

    Concurrent-session *target* per service at virtual time ``t``::

        target(t) = mean_sessions * (1 + amplitude * cos(2*pi*(t/period - phase)))

    Session arrivals are Poisson (or their fluid limit) at the rate
    that sustains ``target(t)`` given the mean session duration
    ``theta``: ``lambda(t) = target(t) / theta``. A service's offered
    RPS is ``sessions * session_rps`` (weighted by the service's
    HTTPS request weight, exactly like the per-session gateway).
    """

    #: Steady-state concurrent sessions per service (the M/M/inf mean).
    mean_sessions: float = 1000.0
    #: Diurnal swing as a fraction of the mean (0 = flat load).
    amplitude: float = 0.0
    #: Fraction of ``period_s`` by which the peak is shifted.
    phase: float = 0.58
    period_s: float = 86_400.0
    #: Mean session lifetime (exponential), seconds.
    session_duration_s: float = 600.0
    #: Requests per second one active session generates.
    session_rps: float = 2.0

    def __post_init__(self):
        for name in ("mean_sessions", "phase", "period_s",
                     "session_duration_s", "session_rps"):
            _require_finite(self, name)
        if self.mean_sessions < 0:
            raise ValueError(f"negative mean_sessions {self.mean_sessions}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), "
                             f"got {self.amplitude}")
        for name in ("period_s", "session_duration_s", "session_rps"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be > 0, got {getattr(self, name)}")

    def target_sessions(self, t: float) -> float:
        """Equilibrium concurrent sessions per service at time ``t``."""
        if self.amplitude == 0.0:
            return self.mean_sessions
        swing = math.cos(2.0 * math.pi * (t / self.period_s - self.phase))
        return self.mean_sessions * (1.0 + self.amplitude * swing)

    def arrival_rate(self, t: float) -> float:
        """Session arrivals per second per service at time ``t``."""
        return self.target_sessions(t) / self.session_duration_s


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one region's fleet (the fluid tier's world).

    ``replicas_per_backend``, shard width, request weights, and all CPU
    cost rates come from the embedded :class:`GatewayConfig` — the same
    object :func:`repro.experiments.cloud_ops.build_production_gateway`
    consumes — so the two tiers share one source of truth.
    """

    azs: int = 3
    backends_per_az: int = 8
    services: int = 16
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    #: Fixed flow-update step of the fluid ODE integrator, seconds.
    dt_s: float = 1.0
    #: Record metric samples every N flow steps (1 = every step).
    sample_every: int = 1
    #: HTTPS cadence mirroring ``build_production_gateway``: every
    #: third service is HTTPS and carries the 3x request weight that
    #: ``TenantService.request_weight`` assigns in the per-session tier.
    https_every: int = 3

    def __post_init__(self):
        if self.azs < 1 or self.backends_per_az < 1 or self.services < 1:
            raise ValueError("azs, backends_per_az and services "
                             "must all be >= 1")
        _require_finite(self, "dt_s")
        if self.dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {self.dt_s}")
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, "
                             f"got {self.sample_every}")
        if self.https_every < 1:
            raise ValueError(f"https_every must be >= 1, "
                             f"got {self.https_every}")
        if self.azs < self.gateway.azs_per_service:
            raise ValueError(
                f"{self.azs} AZs cannot satisfy azs_per_service="
                f"{self.gateway.azs_per_service}")
        if self.backends_per_az < self.gateway.backends_per_service_per_az:
            raise ValueError(
                f"{self.backends_per_az} backends/AZ cannot satisfy "
                f"backends_per_service_per_az="
                f"{self.gateway.backends_per_service_per_az}")

    # -- derived rates (single source of truth: GatewayConfig) -------------
    @property
    def replicas_per_backend(self) -> int:
        return self.gateway.replicas_per_backend

    @property
    def replica_capacity_rps(self) -> float:
        """Unweighted requests/s one healthy replica sustains at 100%.

        The same formula as ``Replica.capacity_rps`` in the per-session
        tier: cores / per-request CPU seconds.
        """
        replica = self.gateway.replica
        return replica.cores / replica.request_cost_s

    @property
    def request_cost_s(self) -> float:
        return self.gateway.replica.request_cost_s

    @property
    def cores_per_replica(self) -> int:
        return self.gateway.replica.cores

    @property
    def safety_threshold(self) -> float:
        return self.gateway.safety_threshold

    def service_weight(self, service_index: int) -> float:
        """HTTPS request weight, mirroring the per-session registry."""
        return 3.0 if service_index % self.https_every == 0 else 1.0

    @property
    def total_replicas(self) -> int:
        return self.azs * self.backends_per_az * self.replicas_per_backend

    def shard_slots(self) -> int:
        """Backends in one service's shuffle-shard combination."""
        return (self.gateway.azs_per_service
                * self.gateway.backends_per_service_per_az)

    def describe(self) -> Tuple[int, int, int]:
        """(azs, backends, replicas) — the fleet's headline shape."""
        backends = self.azs * self.backends_per_az
        return (self.azs, backends, backends * self.replicas_per_backend)
