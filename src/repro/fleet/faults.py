"""Compiling fault plans onto the fluid fleet.

The same :class:`~repro.faults.plan.FaultPlan` documents that drive
the per-session :class:`~repro.faults.engine.FaultEngine` also drive
the fleet tier — same JSON schema, same virtual-time semantics, same
telemetry counters, and the same ``timeline`` as the one fault record
that exhibits return in their result's ``faults`` for ``--report`` —
but injections resolve to
entity-array mutations (decrement a replica column, zero a backend's
session slots) instead of per-object state flips. Only the four
topology fault kinds have a fleet-scale analogue; :meth:`arm` rejects
a plan needing the CA at arm time, mirroring the per-session engine's
fail-fast wiring checks.

Targets accept the symbolic forms the per-session engine defines
(``service:i/backend:j``, ``service:i/backend:j/replica:k``,
``service:i``) plus fleet-native absolute indices (``backend:k``,
``az:k`` or the literal AZ name ``az1``...). After every injection and
recovery the model's conservation invariants are re-checked, so a
fault that leaks sessions fails at the exact step that introduced it.
"""

from __future__ import annotations

from typing import Dict, List

from ..faults.plan import Fault, FaultPlan, FaultPlanError
from ..faults.engine import FaultTargetError, _index
from ..obs.runtime import get_telemetry
from ..simcore import Simulator
from .model import FleetModel

__all__ = ["FleetFaultEngine"]

#: Fault kinds with a fleet-tier analogue (the topology faults).
FLEET_FAULT_KINDS = (
    "replica_crash",
    "backend_crash",
    "az_crash",
    "query_of_death",
)

#: Default request-weight multiplier for an aggregate query-of-death
#: (``Fault.param`` overrides): poison queries that triple a service's
#: per-request cost, the magnitude the Fig 16 testbed exhibit uses.
_QOD_DEFAULT_FACTOR = 3.0


class FleetFaultEngine:
    """Executes the topology slice of a fault plan against a FleetModel."""

    def __init__(self, sim: Simulator, model: FleetModel):
        self.sim = sim
        self.model = model
        self.timeline: List[Dict[str, object]] = []

    # -- compilation -------------------------------------------------------
    def arm(self, plan: FaultPlan) -> int:
        """Check every fault, then schedule it and its recovery; returns
        the number of faults this call armed."""
        faults = plan.faults
        for fault in faults:
            if fault.kind not in FLEET_FAULT_KINDS:
                raise FaultPlanError(
                    f"{fault.kind} has no fleet-tier analogue; the fluid "
                    "model only compiles topology faults "
                    f"({', '.join(FLEET_FAULT_KINDS)})")
            self._resolve(fault)          # fail fast on bad targets
            if fault.at < self.sim.now:
                raise FaultPlanError(
                    f"{fault.kind} at t={fault.at} is in the past "
                    f"(now={self.sim.now})")
        for fault in faults:
            self.sim.call_later(fault.at - self.sim.now, self._fire, fault)
            if fault.duration_s is not None:
                self.sim.call_later(
                    fault.at + fault.duration_s - self.sim.now,
                    self._heal, fault)
        return len(faults)

    # -- target resolution -------------------------------------------------
    def _resolve(self, fault: Fault) -> int:
        kind = fault.kind
        if kind == "az_crash":
            return self._resolve_az(fault.target)
        if kind == "backend_crash":
            return self._resolve_backend(fault.target)
        if kind == "replica_crash":
            return self._resolve_replica(fault)
        if kind == "query_of_death":
            return self._resolve_service(fault.target)
        raise FaultPlanError(f"unhandled fault kind {kind!r}")

    def _resolve_az(self, target: str) -> int:
        names = self.model.topology.az_names
        if target in names:
            return names.index(target)
        index = _index(target, "az")
        if index >= len(names):
            raise FaultTargetError(
                f"{target}: fleet has only {len(names)} AZs")
        return index

    def _resolve_backend(self, target: str) -> int:
        topology = self.model.topology
        if "/" in target:
            service_token, backend_token = target.split("/", 1)
            service = self._resolve_service(service_token)
            shard = topology.shards[service]
            index = _index(backend_token, "backend")
            if index >= len(shard):
                raise FaultTargetError(
                    f"{target}: service {service} has only "
                    f"{len(shard)} backends")
            return shard[index]
        index = _index(target, "backend")
        if index >= topology.n_backends:
            raise FaultTargetError(
                f"{target}: fleet has only {topology.n_backends} backends")
        return index

    def _resolve_replica(self, fault: Fault) -> int:
        """The owning backend index; replicas are fungible in aggregate."""
        target = fault.target
        if "/" in target:
            prefix, replica_token = target.rsplit("/", 1)
            backend = self._resolve_backend(prefix)
            index = _index(replica_token, "replica")
            per_backend = self.model.topology.total_replicas[backend]
            if index >= per_backend:
                raise FaultTargetError(
                    f"{target}: backend {backend} has only "
                    f"{per_backend} replicas")
            return backend
        if not fault.backend:
            raise FaultTargetError(
                f"replica_crash {target!r} needs a symbolic "
                "service:i/backend:j/replica:k target or an explicit "
                "backend")
        return self._resolve_backend(fault.backend)

    def _resolve_service(self, target: str) -> int:
        index = _index(target, "service")
        if index >= self.model.config.services:
            raise FaultTargetError(
                f"{target}: fleet has only "
                f"{self.model.config.services} services")
        return index

    # -- execution ---------------------------------------------------------
    def _fire(self, fault: Fault) -> None:
        model = self.model
        kind = fault.kind
        if kind == "az_crash":
            az = self._resolve_az(fault.target)
            dropped = model.crash_az(az)
            detail = (f"{model.topology.az_names[az]} down "
                      f"({dropped:.1f} sessions dropped)")
        elif kind == "backend_crash":
            backend = self._resolve_backend(fault.target)
            dropped = model.crash_backend(backend)
            detail = (f"backend {backend} down "
                      f"({dropped:.1f} sessions dropped)")
        elif kind == "replica_crash":
            backend = self._resolve_replica(fault)
            dropped = model.crash_replica(backend)
            detail = (f"replica down on backend {backend} "
                      f"({model.topology.healthy_replicas[backend]} left, "
                      f"{dropped:.1f} sessions dropped)")
        else:  # query_of_death
            service = self._resolve_service(fault.target)
            factor = fault.param or _QOD_DEFAULT_FACTOR
            model.set_qod(service, factor)
            detail = f"service {service} request weight x{factor:g}"
        self._note("inject", fault, detail)

    def _heal(self, fault: Fault) -> None:
        model = self.model
        kind = fault.kind
        if kind == "az_crash":
            az = self._resolve_az(fault.target)
            model.recover_az(az)
            detail = f"{model.topology.az_names[az]} restored"
        elif kind == "backend_crash":
            backend = self._resolve_backend(fault.target)
            model.recover_backend(backend)
            detail = f"backend {backend} restored"
        elif kind == "replica_crash":
            backend = self._resolve_replica(fault)
            model.recover_replica(backend)
            detail = (f"replica restarted on backend {backend} "
                      f"({model.topology.healthy_replicas[backend]} healthy)")
        else:  # query_of_death
            service = self._resolve_service(fault.target)
            model.clear_qod(service)
            detail = f"service {service} request weight restored"
        self._note("recover", fault, detail)

    def _note(self, action: str, fault: Fault, detail: str) -> None:
        entry = {"t": self.sim.now, "action": action, "kind": fault.kind,
                 "target": fault.target, "detail": detail}
        self.timeline.append(entry)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc(f"faults_{action}ed_total", kind=fault.kind)
        self.model.check_invariants(
            context=f"{action}:{fault.kind}:{fault.target or '-'}")
