"""Rapid intervention: sandbox migration (§6.2).

* **Lossy migration** (gateway protection, Case #1): reset every session
  of the anomalous service and rebuild it inside a sandbox backend —
  completes within seconds, with a visible session reset.
* **Lossless migration** (Case #2): steer *new* sessions to the sandbox
  while existing sessions drain naturally; completion tracks the flow
  timeout, median ≈ 20 minutes.

Case #3's throttling is modelled analytically by the ``case3`` exhibit
(``experiments/cases.py``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..simcore import Simulator
from ..simcore.rng import lognormal_from_median
from .backend import Backend
from .gateway import MeshGateway

__all__ = ["MigrationRecord", "SandboxManager"]


@dataclass
class MigrationRecord:
    """One sandbox migration (lossy or lossless)."""

    service_id: int
    mode: str                  # "lossy" | "lossless"
    started_at: float
    completed_at: float = 0.0
    sessions_reset: int = 0
    sandbox_backend: str = ""

    @property
    def duration_s(self) -> float:
        return self.completed_at - self.started_at


class SandboxManager:
    """Quarantine backends + the two migration modes."""

    #: Lossy migration rebuilds sessions in the sandbox "within seconds".
    LOSSY_MEDIAN_S = 3.0
    #: Lossless completion is bounded by flow timeout, median ≈ 20 min.
    LOSSLESS_MEDIAN_S = 20.0 * 60.0

    def __init__(self, sim: Simulator, gateway: MeshGateway):
        self.sim = sim
        self.gateway = gateway
        self._sandboxes: Dict[str, Backend] = {}
        self._in_flight: set = set()
        self.records: List[MigrationRecord] = []

    def _claim(self, service_id: int) -> bool:
        """One migration per service: duplicates (several backends
        alerting on the same flood) coalesce into the first."""
        if (service_id in self.gateway.sandboxed
                or service_id in self._in_flight):
            return False
        self._in_flight.add(service_id)
        return True

    def _sandbox_for_az(self, az: str) -> Backend:
        """One dedicated sandbox backend per AZ, created on demand."""
        sandbox = self._sandboxes.get(az)
        if sandbox is None:
            sandbox = self.gateway.deploy_backend(az)
            # Keep sandboxes out of the shuffle-shard pool: they exist
            # only to absorb quarantined traffic.
            self.gateway.backends_by_az[az].remove(sandbox)
            self._sandboxes[az] = sandbox
        return sandbox

    def _service_az(self, service_id: int) -> str:
        backends = self.gateway.service_backends.get(service_id)
        if not backends:
            raise KeyError(f"service {service_id} has no backends")
        return backends[0].az

    def _current_sessions(self, service_id: int) -> int:
        """The service's own sessions on its backends (not its
        co-tenants', which share the replicas' session tables)."""
        return sum(backend.service_sessions(service_id)
                   for backend in self.gateway.service_backends.get(
                       service_id, ()))

    # -- migrations --------------------------------------------------------------
    def migrate_lossy(self, service_id: int):
        """Process generator: reset-and-rebuild into the sandbox."""
        if not self._claim(service_id):
            return None
        record = MigrationRecord(service_id=service_id, mode="lossy",
                                 started_at=self.sim.now,
                                 sessions_reset=self._current_sessions(
                                     service_id))
        sandbox = self._sandbox_for_az(self._service_az(service_id))
        sandbox.install_service(service_id)
        self.gateway.sandboxed[service_id] = sandbox
        self.gateway.refresh_loads()
        yield self.sim.timeout(lognormal_from_median(
            self.sim.rng, self.LOSSY_MEDIAN_S, 0.4))
        record.completed_at = self.sim.now
        record.sandbox_backend = sandbox.name
        self.records.append(record)
        self._in_flight.discard(service_id)
        return record

    def migrate_lossless(self, service_id: int):
        """Process generator: steer new sessions away, drain the old."""
        if not self._claim(service_id):
            return None
        record = MigrationRecord(service_id=service_id, mode="lossless",
                                 started_at=self.sim.now, sessions_reset=0)
        sandbox = self._sandbox_for_az(self._service_az(service_id))
        sandbox.install_service(service_id)
        # New sessions (and their load, as flows turn over) shift to the
        # sandbox immediately; completion waits for old flows to age out.
        self.gateway.sandboxed[service_id] = sandbox
        self.gateway.refresh_loads()
        yield self.sim.timeout(lognormal_from_median(
            self.sim.rng, self.LOSSLESS_MEDIAN_S, 0.5))
        record.completed_at = self.sim.now
        record.sandbox_backend = sandbox.name
        self.records.append(record)
        self._in_flight.discard(service_id)
        return record

    def release(self, service_id: int) -> None:
        """Return a quarantined service to its shuffle-shard backends."""
        sandbox = self.gateway.sandboxed.pop(service_id, None)
        if sandbox is not None:
            sandbox.remove_service(service_id)
        self.gateway.refresh_loads()
