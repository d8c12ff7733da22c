"""Entity-array fleet topology: backends, AZs, shuffle shards.

Instead of one Python object per replica/backend (the per-session
tier), the fleet tier keeps parallel ``array``/list columns indexed by
a dense backend id, so building a 10k-replica region costs
milliseconds. Shards come from the testbed gateway's own placement,
:func:`repro.core.sharding.place_shard`, over each AZ's backend index
list. Only the AZ load it ranks by is kept differently: a per-AZ
counter here, the sum of its backends' configured services in the
gateway. While services are being placed the two are equal, so a
gateway and a topology at one seed and pool shape choose the same
combinations (a test holds them to it). Isolation statistics come from
the shared :func:`repro.core.sharding.shard_stats`.
"""

from __future__ import annotations

import random
from array import array
from typing import FrozenSet, List, Set

from ..core.sharding import place_shard
from .config import FleetConfig

__all__ = ["FleetTopology"]


class FleetTopology:
    """One region's backends and shard assignments, as index arrays."""

    def __init__(self, config: FleetConfig, rng: random.Random):
        self.config = config
        backends = config.azs * config.backends_per_az
        #: AZ index of each backend (backend b lives in az_of[b]).
        self.az_of = array("i", [b % config.azs for b in range(backends)])
        #: Healthy replica count per backend (faults decrement).
        self.healthy_replicas = array(
            "i", [config.replicas_per_backend] * backends)
        #: Replica slots provisioned per backend (grows with "New").
        self.total_replicas = array(
            "i", [config.replicas_per_backend] * backends)
        #: Backend health flag (0 after backend/AZ crash).
        self.backend_up = array("b", [1] * backends)
        self.az_names = [f"az{i + 1}" for i in range(config.azs)]
        #: Cached backend indices per AZ (hot path for the scaler's
        #: reuse search; rebuilt incrementally by :meth:`add_backend`).
        self._az_backends: List[List[int]] = [
            [b for b in range(backends) if self.az_of[b] == az]
            for az in range(config.azs)]
        #: Per-service shard: list of backend indices (grows on Reuse/New).
        self.shards: List[List[int]] = []
        gateway = config.gateway
        used: Set[FrozenSet[int]] = set()
        #: Services configured per AZ, for the least-loaded AZ pick.
        az_load = [0] * config.azs
        for _service in range(config.services):
            shard = place_shard(rng, self._az_backends, az_load,
                                gateway.backends_per_service_per_az,
                                gateway.azs_per_service, used)
            self.shards.append(shard)
            for backend in shard:
                az_load[self.az_of[backend]] += 1

    # -- growth (the "New" strategy deploys fresh backends) ----------------
    def add_backend(self, az: int) -> int:
        """Provision one more backend in ``az``; returns its index."""
        index = len(self.az_of)
        self.az_of.append(az)
        self.healthy_replicas.append(self.config.replicas_per_backend)
        self.total_replicas.append(self.config.replicas_per_backend)
        self.backend_up.append(1)
        self._az_backends[az].append(index)
        return index

    def extend_shard(self, service: int, backend: int) -> None:
        if backend in self.shards[service]:
            raise ValueError(
                f"service {service} already on backend {backend}")
        self.shards[service].append(backend)

    # -- views -------------------------------------------------------------
    @property
    def n_backends(self) -> int:
        return len(self.az_of)

    def replicas_provisioned(self) -> int:
        return sum(self.total_replicas)

    def backends_in_az(self, az: int) -> List[int]:
        return self._az_backends[az]
