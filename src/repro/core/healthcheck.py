"""Health-check proxying with multi-level aggregation (§6.1).

The consolidated gateway made health checks explode: a service sits on
multiple backends, each backend has multiple replicas, each replica has
multiple cores — and every core probed every app endpoint, up to 515×
the app's real traffic (Table 6). Canal's three aggregation levels:

* **service level** — when services configured on the *same backend*
  probe overlapping app sets, probe the union once per backend (no
  cross-backend aggregation: synchronizing results between backends
  would cost more than it saves);
* **core level** — one elected core probes on behalf of the others;
* **replica level** — a dedicated per-backend health-check proxy probes
  on behalf of all replicas.

Table 7 reports ≥ 99.6 % reduction end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

__all__ = ["ServicePlacement", "HealthCheckPlan", "HealthCheckReduction"]


@dataclass(frozen=True)
class ServicePlacement:
    """Where one service sits and which apps it probes."""

    service_id: int
    backend_names: Tuple[str, ...]
    app_endpoints: FrozenSet[str]

    def __post_init__(self) -> None:
        if not self.backend_names:
            raise ValueError("service must sit on at least one backend")
        if not self.app_endpoints:
            raise ValueError("service must have app endpoints to probe")


@dataclass
class HealthCheckReduction:
    """Probe RPS after each aggregation stage (Table 7's columns)."""

    base: float
    service_level: float
    core_level: float
    replica_level: float

    @property
    def reduction(self) -> float:
        if self.base <= 0:
            return 0.0
        return 1.0 - self.replica_level / self.base


class HealthCheckPlan:
    """Computes probe traffic with and without each aggregation level."""

    def __init__(self, placements: Sequence[ServicePlacement],
                 replicas_per_backend: int = 2, cores_per_replica: int = 8,
                 probe_rate_per_target_s: float = 1.0):
        if replicas_per_backend < 1 or cores_per_replica < 1:
            raise ValueError("replicas and cores must be positive")
        if probe_rate_per_target_s <= 0:
            raise ValueError("probe rate must be positive")
        self.placements = list(placements)
        self.replicas = replicas_per_backend
        self.cores = cores_per_replica
        self.rate = probe_rate_per_target_s

    # -- per-stage totals -----------------------------------------------------
    def base_rps(self) -> float:
        """Every core of every replica of every backend probes every
        app of every service independently."""
        total = 0.0
        for placement in self.placements:
            probers = len(placement.backend_names) * self.replicas * self.cores
            total += probers * len(placement.app_endpoints) * self.rate
        return total

    def _backend_targets(self, aggregate_services: bool) -> Dict[str, float]:
        """Probe *targets* per backend, with/without service aggregation.

        With aggregation, each backend probes the union of apps of all
        services configured on it; without, it probes each service's
        apps separately (duplicates included).
        """
        by_backend: Dict[str, List[FrozenSet[str]]] = {}
        for placement in self.placements:
            for backend in placement.backend_names:
                by_backend.setdefault(backend, []).append(
                    placement.app_endpoints)
        targets: Dict[str, float] = {}
        for backend, app_sets in by_backend.items():
            if aggregate_services:
                union: Set[str] = set()
                for apps in app_sets:
                    union |= apps
                targets[backend] = float(len(union))
            else:
                targets[backend] = float(sum(len(apps) for apps in app_sets))
        return targets

    def service_level_rps(self) -> float:
        targets = self._backend_targets(aggregate_services=True)
        return sum(targets.values()) * self.replicas * self.cores * self.rate

    def core_level_rps(self) -> float:
        """Service aggregation + one elected core per replica."""
        targets = self._backend_targets(aggregate_services=True)
        return sum(targets.values()) * self.replicas * self.rate

    def replica_level_rps(self) -> float:
        """All three levels: one health-check proxy per backend."""
        targets = self._backend_targets(aggregate_services=True)
        return sum(targets.values()) * self.rate

    def reduction(self) -> HealthCheckReduction:
        return HealthCheckReduction(
            base=self.base_rps(),
            service_level=self.service_level_rps(),
            core_level=self.core_level_rps(),
            replica_level=self.replica_level_rps())

    # -- per-app view (Table 6's complaint) ---------------------------------------
    def probes_received_by_app(self, app: str,
                               aggregated: bool = False) -> float:
        """Probe RPS a single app endpoint receives."""
        if aggregated:
            backends: Set[str] = set()
            for placement in self.placements:
                if app in placement.app_endpoints:
                    backends.update(placement.backend_names)
            return len(backends) * self.rate
        total = 0.0
        for placement in self.placements:
            if app in placement.app_endpoints:
                probers = (len(placement.backend_names)
                           * self.replicas * self.cores)
                total += probers * self.rate
        return total
