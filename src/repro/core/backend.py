"""Gateway backends: replica groups sharing one configuration set.

§4.2: "a backend is composed of multiple replicas, sharing the same set
of configurations". Hierarchical failure recovery means:

* replica failure — the backend's surviving replicas carry its load
  (its water level rises; brief disruption, sessions rebuilt);
* backend failure — the service falls back to its *other* backends
  (shuffle-shard combination, possibly in other AZs);
* AZ failure — DNS resolves to backends in surviving AZs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..simcore import Simulator
from .replica import Replica, ReplicaConfig, require_finite_rps

__all__ = ["Backend"]


class Backend:
    """A group of replica VMs behind one share of the gateway VIP.

    In fluid mode the backend is the only owner of load: it keeps each
    service's offered RPS and weight, and :meth:`water_level` divides
    them over its healthy replicas. The healthy-replica list and the
    water level are cached. A replica's ``healthy`` setter drops both
    (:meth:`forget_health`); :meth:`place_load` and :meth:`drop_load`
    drop the water level.
    """

    def __init__(self, sim: Simulator, name: str, az: str,
                 replicas: int = 2,
                 replica_config: ReplicaConfig = ReplicaConfig()):
        if replicas < 1:
            raise ValueError("a backend needs at least one replica")
        self.sim = sim
        self.name = name
        self.az = az
        self.replica_config = replica_config
        self.replicas: List[Replica] = [
            Replica(sim, f"{name}-r{i + 1}", az, replica_config, self)
            for i in range(replicas)
        ]
        self._healthy: Optional[List[Replica]] = None
        self._water: Optional[float] = None
        #: Services configured on this backend (service_id set).
        self.configured_services: Set[int] = set()
        #: Fluid-mode per-service RPS offered to this backend.
        self._service_rps: Dict[int, float] = {}
        self._service_weight: Dict[int, float] = {}
        #: Fluid-mode per-service session counts on this backend.
        self._service_sessions: Dict[int, int] = {}

    # -- replica management ---------------------------------------------------
    def _healthy_list(self) -> List[Replica]:
        """The cached healthy replicas, in replica order (not to be
        handed out: callers may hold it across a health change)."""
        healthy = self._healthy
        if healthy is None:
            healthy = self._healthy = [r for r in self.replicas
                                       if r.healthy]
        return healthy

    def forget_health(self) -> None:
        """Drop the cached healthy list and water level (a replica's
        health changed)."""
        self._healthy = None
        self._water = None

    def healthy_replicas(self) -> List[Replica]:
        return list(self._healthy_list())

    def accepting_replicas(self) -> List[Replica]:
        """Replicas that may take *new* flows (healthy and not draining)."""
        return [r for r in self.replicas if r.healthy and not r.draining]

    @property
    def is_healthy(self) -> bool:
        """A backend is up while at least one replica is up."""
        return bool(self._healthy_list())

    def fail_replica(self, name: str) -> Replica:
        replica = self.replica_by_name(name)
        replica.fail()
        return replica

    def recover_replica(self, name: str) -> Replica:
        replica = self.replica_by_name(name)
        replica.recover()
        return replica

    def fail_all(self) -> None:
        for replica in self.replicas:
            replica.fail()

    def recover_all(self) -> None:
        for replica in self.replicas:
            replica.recover()

    def replica_by_name(self, name: str) -> Replica:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise KeyError(f"no replica {name!r} in backend {self.name}")

    # -- configuration ----------------------------------------------------------
    def install_service(self, service_id: int) -> None:
        self.configured_services.add(service_id)

    def remove_service(self, service_id: int) -> None:
        self.configured_services.discard(service_id)
        self.drop_load(service_id)
        if self._service_sessions.pop(service_id, None) is not None:
            self._sync_replica_sessions()

    def hosts_service(self, service_id: int) -> bool:
        return service_id in self.configured_services

    # -- fluid-mode load ------------------------------------------------------------
    def offer_load(self, service_id: int, rps: float,
                   weight: float = 1.0) -> None:
        """Set this backend's share of a service's traffic."""
        require_finite_rps(rps)
        if not self.hosts_service(service_id):
            raise KeyError(
                f"service {service_id} is not configured on {self.name}")
        if rps <= 0:
            self.drop_load(service_id)
            return
        self.place_load(service_id, rps, weight)

    def place_load(self, service_id: int, rps: float,
                   weight: float = 1.0) -> None:
        """:meth:`offer_load` without its checks: the caller guarantees
        a hosted service and a finite ``rps > 0``."""
        self._service_rps[service_id] = rps
        self._service_weight[service_id] = weight
        self._water = None

    def drop_load(self, service_id: int) -> None:
        """Remove one service's load from this backend."""
        if self._service_rps.pop(service_id, None) is None:
            return
        del self._service_weight[service_id]
        self._water = None

    def service_rps(self, service_id: int) -> float:
        return self._service_rps.get(service_id, 0.0)

    def water_level(self) -> float:
        """CPU utilization of each healthy replica, clamped to 1.0.

        Every service's RPS is split evenly over the healthy replicas
        and weighted; one replica's weighted sum over its capacity is
        the level (0.0 with no healthy replica).
        """
        level = self._water
        if level is None:
            healthy = self._healthy_list()
            if not healthy:
                level = 0.0
            else:
                count = len(healthy)
                weight = self._service_weight
                offered = sum(rps / count * weight[service_id]
                              for service_id, rps
                              in self._service_rps.items())
                level = min(1.0, offered / healthy[0].capacity_rps)
            self._water = level
        return level

    def top_services(self, count: int = 5) -> Dict[int, float]:
        """Heaviest services by offered RPS on this backend."""
        ranked = sorted(self._service_rps.items(),
                        key=lambda item: item[1], reverse=True)
        return dict(ranked[:count])

    def capacity_rps(self) -> float:
        return sum(r.capacity_rps for r in self._healthy_list())

    def session_utilization(self) -> float:
        """Mean SmartNIC session-table occupancy over healthy replicas."""
        healthy = self._healthy_list()
        if not healthy:
            return 0.0
        return sum(r.session_utilization() for r in healthy) / len(healthy)

    def offer_sessions(self, service_id: int, count: int) -> None:
        """Set one service's session count here (fluid mode)."""
        if count < 0:
            raise ValueError(f"negative session count {count}")
        if not self.hosts_service(service_id):
            raise KeyError(
                f"service {service_id} is not configured on {self.name}")
        if count == 0:
            self._service_sessions.pop(service_id, None)
        else:
            self._service_sessions[service_id] = count
        self._sync_replica_sessions()

    def service_sessions(self, service_id: int) -> int:
        return self._service_sessions.get(service_id, 0)

    def top_services_by_sessions(self, count: int = 5) -> Dict[int, int]:
        ranked = sorted(self._service_sessions.items(),
                        key=lambda item: item[1], reverse=True)
        return dict(ranked[:count])

    def _sync_replica_sessions(self) -> None:
        """Spread the backend's total session count evenly over its
        healthy replicas' session tables."""
        healthy = self._healthy_list()
        if not healthy:
            return
        share = sum(self._service_sessions.values()) // len(healthy)
        for replica in healthy:
            replica.sessions_used = min(share,
                                        replica.config.session_capacity)

    # -- DES mode --------------------------------------------------------------------
    def pick_replica(self, flow_hash: int) -> Optional[Replica]:
        """Stateless replica choice for one flow (ECMP-style)."""
        accepting = self.accepting_replicas()
        if not accepting:
            return None
        return accepting[flow_hash % len(accepting)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Backend {self.name} az={self.az} "
                f"replicas={len(self.replicas)} "
                f"services={len(self.configured_services)} "
                f"water={self.water_level():.2f}>")
