"""Shuffle sharding: unique backend combinations per service (§4.2).

AWS-style shuffle sharding [39] assigns every service its own random
combination of backends, so that even if *all* backends of one service
die (e.g. a query of death takes them down one by one), every other
service still has at least one backend outside the blast radius —
because no two services share their entire combination.

Both tiers place and measure through the two functions here: the
testbed gateway over ``Backend`` pools, the fleet topology over
backend indices.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import (Callable, Dict, FrozenSet, Hashable, List, Sequence, Set,
                    TypeVar)

__all__ = ["ShardStats", "ShardingError", "place_shard", "shard_stats"]

T = TypeVar("T", bound=Hashable)

#: Draws per service before its combination space counts as exhausted.
MAX_ATTEMPTS = 200


class ShardingError(RuntimeError):
    """Not enough backends to honor the sharding constraints."""


def place_shard(rng: random.Random, pools: Sequence[Sequence[T]],
                az_load: Sequence[int], per_az: int, azs_per_service: int,
                used: Set[FrozenSet[T]]) -> List[T]:
    """Draw one service's combination and add it to ``used``.

    ``pools`` holds each AZ's backends in AZ index order. The
    ``azs_per_service`` AZs with the least ``az_load`` are chosen, ties
    to the lower index; ``per_az`` backends are sampled from each, and
    the whole combination is redrawn until it is not in ``used``.
    """
    if len(pools) < azs_per_service:
        raise ShardingError(
            f"need {azs_per_service} AZs, have {len(pools)}")
    ranked = sorted(range(len(pools)), key=lambda az: (az_load[az], az))
    azs = ranked[:azs_per_service]
    for _attempt in range(MAX_ATTEMPTS):
        chosen: List[T] = []
        for az in azs:
            pool = pools[az]
            if len(pool) < per_az:
                raise ShardingError(
                    f"AZ {az} has {len(pool)} backends, need {per_az}")
            chosen.extend(rng.sample(pool, per_az))
        key = frozenset(chosen)
        if key not in used:
            used.add(key)
            return chosen
    raise ShardingError(
        f"could not find a unique combination after {MAX_ATTEMPTS} "
        "attempts — add backends")


@dataclass(frozen=True)
class ShardStats:
    """Aggregate isolation properties of a shard assignment (Fig 19)."""

    fully_overlapping_pairs: int
    max_pairwise_overlap: int
    #: min over services of (shard size - worst overlap with any
    #: other service): backends a service keeps if the most-
    #: overlapping peer's entire combination fails.
    min_survivor_backends: int
    multi_az_services: int


def shard_stats(shards: Sequence[Sequence[T]],
                az_of: Callable[[T], Hashable]) -> ShardStats:
    """Isolation statistics of ``shards`` (one backend list per service).

    Counts backend co-occurrence rather than intersecting all pairs:
    O(backends x services_per_backend^2) instead of O(services^2), which
    is what makes the 2000-service blast-radius exhibit run in seconds.
    """
    services_on: Dict[T, List[int]] = {}
    for service, shard in enumerate(shards):
        for backend in shard:
            services_on.setdefault(backend, []).append(service)
    pair_overlap = Counter(pair for members in services_on.values()
                           for pair in combinations(members, 2))
    worst_of = [0] * len(shards)
    for (a, b), overlap in pair_overlap.items():
        if overlap > worst_of[a]:
            worst_of[a] = overlap
        if overlap > worst_of[b]:
            worst_of[b] = overlap
    return ShardStats(
        fully_overlapping_pairs=sum(
            1 for (a, b), overlap in pair_overlap.items()
            if overlap == len(shards[a]) == len(shards[b])),
        max_pairwise_overlap=max(pair_overlap.values(), default=0),
        min_survivor_backends=min(
            (len(shard) - worst for shard, worst in zip(shards, worst_of)),
            default=0),
        multi_az_services=sum(
            1 for shard in shards if len({az_of(b) for b in shard}) > 1))
