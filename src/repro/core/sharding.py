"""Shuffle sharding: unique backend combinations per service (§4.2).

AWS-style shuffle sharding [39] assigns every service its own random
combination of backends, so that even if *all* backends of one service
die (e.g. a query of death takes them down one by one), every other
service still has at least one backend outside the blast radius —
because no two services share their entire combination.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Set, Tuple

from .backend import Backend

__all__ = ["ShuffleSharder", "ShardingError"]


class ShardingError(RuntimeError):
    """Not enough backends to honor the sharding constraints."""


class ShuffleSharder:
    """Assigns services unique shuffle-shard backend combinations."""

    def __init__(self, rng: random.Random, backends_per_service_per_az: int = 2,
                 azs_per_service: int = 2, max_attempts: int = 200):
        if backends_per_service_per_az < 1:
            raise ValueError("need at least one backend per AZ per service")
        if azs_per_service < 1:
            raise ValueError("need at least one AZ per service")
        self.rng = rng
        self.backends_per_service_per_az = backends_per_service_per_az
        self.azs_per_service = azs_per_service
        self.max_attempts = max_attempts
        self._assigned: Dict[int, Tuple[str, ...]] = {}
        self._used_combinations: Set[Tuple[str, ...]] = set()

    def assign(self, service_id: int,
               backends_by_az: Dict[str, List[Backend]]) -> List[Backend]:
        """Choose a unique backend combination for one service.

        AZs are chosen to spread configured-service counts; within each
        chosen AZ, ``backends_per_service_per_az`` backends are drawn at
        random, re-drawing until the full combination is unique.
        """
        if service_id in self._assigned:
            raise ValueError(f"service {service_id} already sharded")
        azs = self._pick_azs(backends_by_az)
        for _attempt in range(self.max_attempts):
            chosen: List[Backend] = []
            for az in azs:
                pool = backends_by_az[az]
                if len(pool) < self.backends_per_service_per_az:
                    raise ShardingError(
                        f"AZ {az} has {len(pool)} backends, need "
                        f"{self.backends_per_service_per_az}")
                chosen.extend(self.rng.sample(
                    pool, self.backends_per_service_per_az))
            key = tuple(sorted(backend.name for backend in chosen))
            if key not in self._used_combinations:
                self._used_combinations.add(key)
                self._assigned[service_id] = key
                return chosen
        raise ShardingError(
            f"could not find a unique combination for service {service_id} "
            f"after {self.max_attempts} attempts — add backends")

    def _pick_azs(self, backends_by_az: Dict[str, List[Backend]]) -> List[str]:
        if len(backends_by_az) < self.azs_per_service:
            raise ShardingError(
                f"need {self.azs_per_service} AZs, have {len(backends_by_az)}")
        # Spread: prefer the AZs whose backends currently carry the
        # fewest service configurations.
        def az_load(az: str) -> int:
            return sum(len(b.configured_services) for b in backends_by_az[az])
        ordered = sorted(backends_by_az, key=az_load)
        return ordered[:self.azs_per_service]

    def release(self, service_id: int) -> None:
        key = self._assigned.pop(service_id, None)
        if key is not None:
            self._used_combinations.discard(key)

    # -- isolation properties (Fig 19's guarantees) -------------------------
    def max_pairwise_overlap(self) -> int:
        """Largest backend overlap between any two services."""
        worst = 0
        combos = list(self._assigned.values())
        for a, b in itertools.combinations(combos, 2):
            worst = max(worst, len(set(a) & set(b)))
        return worst

    def fully_overlapping_pairs(self) -> int:
        """Pairs of services sharing an identical combination (must be 0)."""
        combos = list(self._assigned.values())
        return sum(1 for a, b in itertools.combinations(combos, 2)
                   if set(a) == set(b))

    def survivors_if_combination_fails(self, service_id: int) -> Dict[int, int]:
        """For each *other* service: backends it keeps if this service's
        entire combination goes down. Shuffle sharding guarantees every
        value is >= 1."""
        doomed = set(self._assigned[service_id])
        return {other: len(set(combo) - doomed)
                for other, combo in self._assigned.items()
                if other != service_id}

    @staticmethod
    def combinations_available(backends: int, per_service: int) -> int:
        """How many distinct combinations a pool supports (per AZ)."""
        return math.comb(backends, per_service)

    def __len__(self) -> int:
        return len(self._assigned)
