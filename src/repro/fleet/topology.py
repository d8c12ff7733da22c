"""Entity-array fleet topology: backends, AZs, shuffle shards.

Instead of one Python object per replica/backend (the per-session
tier), the fleet tier keeps parallel ``array``/list columns indexed by
a dense backend id. Shuffle sharding mirrors the semantics of
:class:`repro.core.sharding.ShuffleSharder` — least-loaded AZ pick,
``rng.sample`` of distinct backends per AZ, uniqueness of the full
combination — but operates on indices, so building a 10k-replica
region costs milliseconds.

Isolation statistics (the Fig 19 guarantees) are computed by backend
co-occurrence counting rather than all-pairs set intersection:
O(backends x services_per_backend^2) instead of O(services^2), which
is what makes the 2000-service blast-radius exhibit run in seconds.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Tuple

from .config import FleetConfig

__all__ = ["FleetTopology", "ShardStats"]


class ShardStats:
    """Aggregate isolation properties of a shard assignment."""

    def __init__(self, fully_overlapping_pairs: int, max_pairwise_overlap: int,
                 min_survivor_backends: int, multi_az_services: int):
        self.fully_overlapping_pairs = fully_overlapping_pairs
        self.max_pairwise_overlap = max_pairwise_overlap
        #: min over services of (shard size - worst overlap with any
        #: other service): backends a service keeps if the most-
        #: overlapping peer's entire combination fails.
        self.min_survivor_backends = min_survivor_backends
        self.multi_az_services = multi_az_services


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
        self._combinations: Dict[Tuple[int, ...], int] = {}
        self._assign_all(rng)

    # -- construction ------------------------------------------------------
    def _assign_all(self, rng: random.Random) -> None:
        config = self.config
        per_az = config.gateway.backends_per_service_per_az
        az_pools = self._az_backends
        #: Services configured per AZ, for the least-loaded AZ pick.
        az_load = [0] * config.azs
        for _service in range(config.services):
            ranked = sorted(range(config.azs), key=lambda az: (az_load[az], az))
            azs = ranked[:config.gateway.azs_per_service]
            for _attempt in range(200):
                chosen: List[int] = []
                for az in azs:
                    chosen.extend(rng.sample(az_pools[az], per_az))
                key = tuple(sorted(chosen))
                if key not in self._combinations:
                    break
            else:
                raise ValueError(
                    "could not find a unique shuffle-shard combination "
                    f"after 200 attempts for service {_service} — "
                    "add backends")
            self._combinations[key] = _service
            self.shards.append(chosen)
            for az in azs:
                az_load[az] += per_az

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

    # -- isolation statistics (Fig 19 at scale) ----------------------------
    def shard_stats(self) -> ShardStats:
        services_on: Dict[int, List[int]] = {}
        for service, shard in enumerate(self.shards):
            for backend in shard:
                services_on.setdefault(backend, []).append(service)
        pair_overlap: Dict[Tuple[int, int], int] = {}
        for members in services_on.values():
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    key = (a, b)
                    pair_overlap[key] = pair_overlap.get(key, 0) + 1
        max_overlap = max(pair_overlap.values(), default=0)
        worst_of: Dict[int, int] = {}
        for (a, b), overlap in pair_overlap.items():
            if overlap > worst_of.get(a, 0):
                worst_of[a] = overlap
            if overlap > worst_of.get(b, 0):
                worst_of[b] = overlap
        full_pairs = sum(
            1 for (a, b), overlap in pair_overlap.items()
            if overlap == len(self.shards[a]) == len(self.shards[b]))
        survivors = [len(self.shards[s]) - worst_of.get(s, 0)
                     for s in range(len(self.shards))]
        multi_az = sum(
            1 for shard in self.shards
            if len({self.az_of[b] for b in shard}) > 1)
        return ShardStats(
            fully_overlapping_pairs=full_pairs,
            max_pairwise_overlap=max_overlap,
            min_survivor_backends=min(survivors, default=0),
            multi_az_services=multi_az)
