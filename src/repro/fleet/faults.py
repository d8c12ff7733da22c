"""Compiling fault plans onto the fluid fleet.

The same :class:`~repro.faults.plan.FaultPlan` documents that drive
the testbed's :class:`~repro.faults.engine.FaultEngine` also drive the
fleet tier, through the same arm/fire/heal/note loop — same JSON
schema, same virtual-time semantics, same telemetry counters, and the
same ``timeline`` as the one fault record that exhibits return in
their result's ``faults`` for ``--report`` — but injections resolve to
entity-array mutations (decrement a replica column, zero a backend's
session slots) instead of per-object state flips. Only the four
topology fault kinds have a fleet-scale analogue; :meth:`arm` rejects
any other kind before it schedules anything.

Targets accept the symbolic forms ``service:i``,
``service:i/backend:j`` and ``service:i/backend:j/replica:k`` plus
fleet-native absolute indices (``backend:k``, ``az:k`` or the literal
AZ name ``az1``...). Fleet replicas have no names, so a
``replica_crash`` takes only the three-level path. After every
injection and recovery the model's conservation invariants are
re-checked, so a fault that leaks sessions fails at the exact step
that introduced it.
"""

from __future__ import annotations

from ..faults.plan import Fault, FaultPlanError
from ..faults.engine import _FaultEngineBase, _index, _parse_path, _pick
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


class FleetFaultEngine(_FaultEngineBase):
    """Executes the topology slice of a fault plan against a FleetModel."""

    def __init__(self, sim: Simulator, model: FleetModel):
        super().__init__(sim)
        self.model = model

    def _check(self, fault: Fault) -> None:
        if fault.kind not in FLEET_FAULT_KINDS:
            raise FaultPlanError(
                f"{fault.kind} has no fleet-tier analogue; the fluid "
                "model only compiles topology faults "
                f"({', '.join(FLEET_FAULT_KINDS)})")
        self._target(fault)
        super()._check(fault)

    # -- target resolution -------------------------------------------------
    def _target(self, fault: Fault) -> int:
        """The AZ, backend (the owning one, for a replica: replicas are
        fungible in aggregate) or service index ``fault`` acts on."""
        kind = fault.kind
        target = fault.target
        if kind == "az_crash":
            names = self.model.topology.az_names
            if target in names:
                return names.index(target)
            return _pick(range(len(names)), _index(target, "az"), target,
                         "fleet", "AZs")
        if kind == "backend_crash":
            if "/" in target:
                return self._backend_at(target, *_parse_path(target, 2))
            return _pick(range(self.model.topology.n_backends),
                         _index(target, "backend"), target, "fleet",
                         "backends")
        if kind == "replica_crash":
            service, backend, replica = _parse_path(target, 3)
            backend = self._backend_at(target, service, backend)
            _pick(range(self.model.topology.total_replicas[backend]),
                  replica, target, f"backend {backend}", "replicas")
            return backend
        (service,) = _parse_path(target, 1)
        return self._service_at(target, service)

    def _service_at(self, target: str, service: int) -> int:
        return _pick(range(self.model.config.services), service, target,
                     "fleet", "services")

    def _backend_at(self, target: str, service: int, backend: int) -> int:
        shard = self.model.topology.shards[self._service_at(target, service)]
        return _pick(shard, backend, target, f"service {service}",
                     "backends")

    # -- execution ---------------------------------------------------------
    def _inject(self, fault: Fault) -> str:
        model = self.model
        kind = fault.kind
        index = self._target(fault)
        if kind == "az_crash":
            dropped = model.crash_az(index)
            return (f"{model.topology.az_names[index]} down "
                    f"({dropped:.1f} sessions dropped)")
        if kind == "backend_crash":
            dropped = model.crash_backend(index)
            return f"backend {index} down ({dropped:.1f} sessions dropped)"
        if kind == "replica_crash":
            dropped = model.crash_replica(index)
            return (f"replica down on backend {index} "
                    f"({model.topology.healthy_replicas[index]} left, "
                    f"{dropped:.1f} sessions dropped)")
        factor = fault.param or _QOD_DEFAULT_FACTOR
        model.set_qod(index, factor)
        return f"service {index} request weight x{factor:g}"

    def _recover(self, fault: Fault) -> str:
        model = self.model
        kind = fault.kind
        index = self._target(fault)
        if kind == "az_crash":
            model.recover_az(index)
            return f"{model.topology.az_names[index]} restored"
        if kind == "backend_crash":
            model.recover_backend(index)
            return f"backend {index} restored"
        if kind == "replica_crash":
            model.recover_replica(index)
            return (f"replica restarted on backend {index} "
                    f"({model.topology.healthy_replicas[index]} healthy)")
        model.clear_qod(index)
        return f"service {index} request weight restored"

    def _audit(self, context: str) -> None:
        self.model.check_invariants(context=context)
