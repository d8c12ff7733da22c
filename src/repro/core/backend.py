"""Gateway backends: replica groups sharing one configuration set.

§4.2: "a backend is composed of multiple replicas, sharing the same set
of configurations". Hierarchical failure recovery means:

* replica failure — flows re-spread across the backend's surviving
  replicas (brief disruption, sessions rebuilt);
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
    """A group of replica VMs behind one share of the gateway VIP."""

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
            Replica(sim, f"{name}-r{i + 1}", az, replica_config)
            for i in range(replicas)
        ]
        #: Services configured on this backend (service_id set).
        self.configured_services: Set[int] = set()
        #: Fluid-mode per-service RPS offered to this backend.
        self._service_rps: Dict[int, float] = {}
        self._service_weight: Dict[int, float] = {}
        #: Fluid-mode per-service session counts on this backend.
        self._service_sessions: Dict[int, int] = {}

    # -- replica management ---------------------------------------------------
    def healthy_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if r.healthy]

    def accepting_replicas(self) -> List[Replica]:
        """Replicas that may take *new* flows (healthy and not draining)."""
        return [r for r in self.replicas if r.healthy and not r.draining]

    @property
    def is_healthy(self) -> bool:
        """A backend is up while at least one replica is up."""
        return bool(self.healthy_replicas())

    def add_replica(self) -> Replica:
        replica = Replica(self.sim, f"{self.name}-r{len(self.replicas) + 1}",
                          self.az, self.replica_config)
        self.replicas.append(replica)
        self._redistribute()
        return replica

    def fail_replica(self, name: str) -> Replica:
        replica = self.replica_by_name(name)
        replica.fail()
        self._redistribute()
        return replica

    def recover_replica(self, name: str) -> Replica:
        replica = self.replica_by_name(name)
        replica.recover()
        self._redistribute()
        return replica

    def fail_all(self) -> None:
        for replica in self.replicas:
            replica.fail()
        self._redistribute()

    def recover_all(self) -> None:
        for replica in self.replicas:
            replica.recover()
        self._redistribute()

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
        self._drop_load(service_id)
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
            self._drop_load(service_id)
            return
        self._service_rps[service_id] = rps
        self._service_weight[service_id] = weight
        healthy = self.healthy_replicas()
        if healthy:
            share = rps / len(healthy)
            for replica in healthy:
                replica.assigned_rps[service_id] = share * weight

    def _drop_load(self, service_id: int) -> None:
        self._service_rps.pop(service_id, None)
        self._service_weight.pop(service_id, None)
        for replica in self.replicas:
            replica.clear_service(service_id)

    def _redistribute(self) -> None:
        """Spread offered load evenly over healthy replicas.

        Health and replica-set changes call this. ``offer_load`` and
        ``remove_service`` touch only their service's entry, so every
        healthy replica's ``assigned_rps`` keeps exactly the keys of
        ``_service_rps``, in its order, as this method would give.
        """
        healthy = self.healthy_replicas()
        for replica in self.replicas:
            replica.assigned_rps.clear()
        if not healthy:
            return
        for service_id, rps in self._service_rps.items():
            share = rps / len(healthy)
            weight = self._service_weight.get(service_id, 1.0)
            for replica in healthy:
                replica.assigned_rps[service_id] = share * weight

    def service_rps(self, service_id: int) -> float:
        return self._service_rps.get(service_id, 0.0)

    def water_level(self) -> float:
        """Backend CPU utilization = mean over healthy replicas."""
        healthy = self.healthy_replicas()
        if not healthy:
            return 0.0
        return sum(r.water_level() for r in healthy) / len(healthy)

    def top_services(self, count: int = 5) -> Dict[int, float]:
        """Heaviest services by offered RPS on this backend."""
        ranked = sorted(self._service_rps.items(),
                        key=lambda item: item[1], reverse=True)
        return dict(ranked[:count])

    def capacity_rps(self) -> float:
        return sum(r.capacity_rps for r in self.healthy_replicas())

    def session_utilization(self) -> float:
        """Mean SmartNIC session-table occupancy over healthy replicas."""
        healthy = self.healthy_replicas()
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

    def set_sessions(self, total_sessions: int) -> None:
        """Fluid-mode helper: pin this backend's *total* session count
        (spread evenly over healthy replicas), service-agnostic."""
        if total_sessions < 0:
            raise ValueError(f"negative session count {total_sessions}")
        healthy = self.healthy_replicas()
        if not healthy:
            return
        share = total_sessions // len(healthy)
        for replica in healthy:
            replica.sessions_used = min(share,
                                        replica.config.session_capacity)

    def _sync_replica_sessions(self) -> None:
        total = sum(self._service_sessions.values())
        self.set_sessions(total)

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
