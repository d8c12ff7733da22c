"""Gateway replicas: the VMs that execute mesh-gateway processing.

A replica is one VM (§4.2: "a replica is a VM while a backend is a
group of VMs"). In DES mode a :class:`~repro.simcore.CpuResource`
processes individual requests (the testbed-scale experiments). Fluid
mode (the production-scale experiments, Figs 16–20) keeps no load on
the replica: its backend owns each service's offered RPS and computes
the water level from its healthy-replica count, and the replica only
supplies its :attr:`~Replica.capacity_rps`.

Session accounting models the SmartNIC constraint of §3.2 Issue #4: a
bounded session table that typically exhausts while CPU sits at ~20 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

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

    Setting ``healthy`` tells the owning backend (if any) to drop its
    cached healthy-replica list and water level.
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

    @property
    def capacity_rps(self) -> float:
        """Fluid-mode requests per second this VM can execute."""
        return self.config.cores / self.config.request_cost_s

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
                f"healthy={self.healthy} sessions={self.sessions_used}>")
