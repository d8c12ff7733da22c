"""Gateway replicas: the VMs that execute mesh-gateway processing.

A replica is one VM (§4.2: "a replica is a VM while a backend is a
group of VMs"). It supports two complementary execution modes:

* **DES mode** — a :class:`~repro.simcore.CpuResource` processes
  individual requests (used by the testbed-scale experiments);
* **fluid mode** — per-service offered RPS is assigned analytically and
  the water level is computed as demand/capacity (used by the
  production-scale experiments, Figs 16–20).

Session accounting models the SmartNIC constraint of §3.2 Issue #4: a
bounded session table that typically exhausts while CPU sits at ~20 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..mesh.costs import sample_service_time
from ..simcore import CpuResource, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backend import Backend

__all__ = ["ReplicaConfig", "Replica", "require_finite_rps"]


def require_at_least(owner, name: str, low: float,
                     inclusive: bool = True) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``owner.name`` is
    finite and ``>= low`` (``> low`` when not ``inclusive``)."""
    value = getattr(owner, name)
    if not (math.isfinite(value)
            and (value >= low if inclusive else value > low)):
        bound = ">=" if inclusive else ">"
        raise ValueError(f"{type(owner).__name__}.{name} must be finite "
                         f"and {bound} {low}, got {value!r}")


def require_finite_rps(rps: float) -> None:
    """Raise a ``ValueError`` naming ``rps`` when it is NaN or ±inf."""
    if not math.isfinite(rps):
        raise ValueError(f"rps must be finite, got {rps!r}")


@dataclass(frozen=True)
class ReplicaConfig:
    """Sizing of one gateway replica VM."""

    cores: int = 8
    #: CPU seconds of one (HTTP-weighted) L7 request.
    request_cost_s: float = 115e-6
    #: Lognormal sigma of the per-request cost (the optimized gateway
    #: engine is near-deterministic; see mesh.costs.sample_service_time).
    request_cost_sigma: float = 0.35
    #: SmartNIC flow/session table capacity for this VM's slice.
    session_capacity: int = 100_000

    def __post_init__(self):
        require_at_least(self, "cores", 1)
        require_at_least(self, "request_cost_s", 0, inclusive=False)
        require_at_least(self, "request_cost_sigma", 0)
        require_at_least(self, "session_capacity", 1)


class Replica:
    """One gateway VM.

    The replica is the only writer of its ``assigned_rps`` and keeps
    its fluid water level cached until one of its load methods drops
    it. Setting ``healthy`` tells the owning backend (if any) to drop
    its cached healthy-replica list.
    """

    def __init__(self, sim: Simulator, name: str, az: str,
                 config: ReplicaConfig = ReplicaConfig(),
                 backend: Optional["Backend"] = None):
        self.sim = sim
        self.name = name
        self.az = az
        self.config = config
        self._backend = backend
        self._healthy = True
        #: Set when the replica is draining (scheduled to go offline):
        #: it still serves existing flows but must not accept new ones.
        self.draining = False
        # Fluid-mode state: offered load per service id, and the water
        # level it gives (None until read after a write).
        self.assigned_rps: Dict[int, float] = {}
        self._water: Optional[float] = None
        # Session accounting (underlay sessions on the SmartNIC).
        self.sessions_used = 0
        #: Crashes so far: a session entry taken before the latest one
        #: died with it.
        self.incarnation = 0
        self.requests_served = 0
        self._cpu: Optional[CpuResource] = None

    @property
    def healthy(self) -> bool:
        return self._healthy

    @healthy.setter
    def healthy(self, value: bool) -> None:
        self._healthy = value
        if self._backend is not None:
            self._backend.forget_health()

    # -- DES mode ------------------------------------------------------------
    @property
    def cpu(self) -> CpuResource:
        """Lazy per-request CPU resource (only testbed runs need it)."""
        if self._cpu is None:
            self._cpu = CpuResource(self.sim, cores=self.config.cores,
                                    name=f"replica-{self.name}")
        return self._cpu

    def process_request(self, weight: float = 1.0, trace=None,
                        parent_id: int = 1, after_s: float = 0.0):
        """Process generator: execute one L7 request on this replica,
        then ``after_s`` of fixed delay in the same wait; returns the
        time the execution ended.

        With a ``trace`` handle, the replica's CPU occupancy (queueing
        included) becomes an ``l7`` span under ``parent_id``.
        """
        self.requests_served += 1
        cost = sample_service_time(self.sim.rng,
                                   self.config.request_cost_s * weight,
                                   self.config.request_cost_sigma)
        start = self.sim.now
        end = yield self.cpu.run(cost, after_s)
        if trace is not None:
            trace.add("replica-exec", "l7", start, end,
                      parent_id=parent_id, source=f"replica/{self.name}",
                      cpu_s=cost)
        return end

    # -- fluid mode -----------------------------------------------------------
    def set_service_rps(self, service_id: int, rps: float,
                        weight: float = 1.0) -> None:
        """Assign offered load (already weighted RPS) for one service."""
        require_finite_rps(rps)
        if rps < 0:
            raise ValueError(f"negative rps {rps}")
        if rps == 0:
            self.clear_service(service_id)
        else:
            self.place_rps(service_id, rps * weight)

    def place_rps(self, service_id: int, rps: float) -> None:
        """Assign already-weighted, already-checked load (a backend's
        spread of a validated offer)."""
        self.assigned_rps[service_id] = rps
        self._water = None

    def clear_service(self, service_id: int) -> None:
        if self.assigned_rps.pop(service_id, None) is not None:
            self._water = None

    def clear_load(self) -> None:
        """Drop every service's load (before a backend re-spread)."""
        self.assigned_rps.clear()
        self._water = None

    @property
    def offered_rps(self) -> float:
        return sum(self.assigned_rps.values())

    @property
    def capacity_rps(self) -> float:
        return self.config.cores / self.config.request_cost_s

    def water_level(self) -> float:
        """CPU utilization in fluid mode, clamped to 1.0."""
        level = self._water
        if level is None:
            level = self._water = min(1.0,
                                      self.offered_rps / self.capacity_rps)
        return level

    def top_services(self, count: int = 5) -> Dict[int, float]:
        """The heaviest services on this replica (RCA's sampling input)."""
        ranked = sorted(self.assigned_rps.items(),
                        key=lambda item: item[1], reverse=True)
        return dict(ranked[:count])

    # -- sessions -----------------------------------------------------------------
    def add_sessions(self, count: int) -> bool:
        """Reserve session-table entries; False when the table is full."""
        if count < 0:
            raise ValueError(f"negative session count {count}")
        if self.sessions_used + count > self.config.session_capacity:
            return False
        self.sessions_used += count
        return True

    def remove_sessions(self, count: int) -> None:
        """Free session-table entries; freeing more than are held raises."""
        if count < 0:
            raise ValueError(f"negative session count {count}")
        if count > self.sessions_used:
            raise ValueError(f"replica {self.name} frees {count} sessions "
                             f"but holds {self.sessions_used}")
        self.sessions_used -= count

    def session_utilization(self) -> float:
        return self.sessions_used / self.config.session_capacity

    def fail(self) -> int:
        """Take the VM down; its SmartNIC session table dies with it.

        Returns the number of sessions the crash disrupted.
        """
        disrupted = self.sessions_used
        self.healthy = False
        self.sessions_used = 0
        self.incarnation += 1
        return disrupted

    def recover(self) -> None:
        self.healthy = True
        self.draining = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Replica {self.name} az={self.az} "
                f"healthy={self.healthy} load={self.offered_rps:.0f}rps>")
