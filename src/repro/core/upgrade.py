"""Rolling version upgrades of the gateway fleet (§5.5, Fig 20).

"The version update takes about 4 hours as it involves rolling upgrades
of machines" — scheduled at night, with no error-code spikes. The
roller walks every backend, upgrading one replica at a time: drain
(redirectors steer new flows away), wait for flows to age, swap the
image, rejoin. At least one replica per backend keeps accepting at all
times, so no service sees an outage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..simcore import Simulator
from .gateway import MeshGateway
from .replica import Replica

__all__ = ["UpgradeReport", "RollingUpgrade"]


@dataclass
class UpgradeReport:
    """Outcome of one fleet-wide rolling upgrade."""

    version: str
    started_at: float
    finished_at: float = 0.0
    replicas_upgraded: int = 0
    #: Seconds during which any service had zero healthy backends.
    outage_seconds: float = 0.0
    skipped_backends: List[str] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at


class RollingUpgrade:
    """Upgrades every gateway replica to a target version, one at a time."""

    def __init__(self, sim: Simulator, gateway: MeshGateway,
                 drain_s: float = 120.0, swap_s: float = 90.0,
                 rejoin_s: float = 30.0):
        self.sim = sim
        self.gateway = gateway
        self.drain_s = drain_s
        self.swap_s = swap_s
        self.rejoin_s = rejoin_s

    def replica_versions(self) -> Dict[str, str]:
        return {replica.name: getattr(replica, "version", "v0")
                for backend in self.gateway.all_backends
                for replica in backend.replicas}

    def run(self, version: str):
        """Process generator: roll the whole fleet → UpgradeReport."""
        report = UpgradeReport(version=version, started_at=self.sim.now)
        for backend in self.gateway.all_backends:
            if len(backend.healthy_replicas()) < 2:
                # Never take a backend's last replica; Canal adds one
                # first in production — here we record and skip.
                report.skipped_backends.append(backend.name)
                continue
            for replica in list(backend.replicas):
                if not replica.healthy:
                    continue
                yield from self._upgrade_replica(replica, version, report)
        report.finished_at = self.sim.now
        return report

    def _upgrade_replica(self, replica: Replica, version: str,
                         report: UpgradeReport):
        # Drain: stop accepting new flows, let existing ones age out.
        replica.draining = True
        yield self.sim.timeout(self.drain_s)
        # Swap: the replica is briefly out of the healthy set.
        replica.fail()
        self.gateway.refresh_loads()
        outage_before = self._services_down()
        yield self.sim.timeout(self.swap_s)
        if outage_before:
            report.outage_seconds += self.swap_s * len(outage_before)
        replica.version = version  # type: ignore[attr-defined]
        replica.recover()
        self.gateway.refresh_loads()
        yield self.sim.timeout(self.rejoin_s)
        report.replicas_upgraded += 1

    def _services_down(self) -> List[int]:
        return [service_id for service_id in self.gateway.service_backends
                if self.gateway.service_outage(service_id)]
