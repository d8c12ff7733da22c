"""The fault engine: compiles a FaultPlan onto a simulator agenda.

:meth:`FaultEngine.arm` walks a :class:`~repro.faults.plan.FaultPlan`
and schedules one direct call per injection (and one per recovery,
when the fault has a ``duration_s``) on the simulator's agenda through
:meth:`~repro.simcore.Simulator.call_later`. Everything after that is
ordinary discrete-event execution: faults fire at exact virtual times,
tie-broken by plan order through the agenda's monotone sequence
numbers, so a plan's effect is a pure function of (plan, seed) —
independent of wall clock, worker count, or process interleaving.

Injections and recoveries call the wired components directly: the
gateway's ``fail_*``/``recover_*`` methods, which return the sessions a
crash disrupted, and the CA. The query-of-death cascade lives here,
its one caller. ``disrupted`` tallies the disrupted sessions per scope
(``"replica"``, ``"backend"``, ``"az"``; the cascade's crashes count
under ``"backend"``). A target already down holds no sessions, so
overlapping faults never count a session twice.

After every injection and recovery the engine appends an entry to its
``timeline``, the run's one fault record: sweep points return it,
exhibits put it in their result's ``faults``, and ``--report`` writes
it to all three JSON artifacts at any ``--jobs``. It also bumps the
``faults_injected_total`` / ``faults_recovered_total`` telemetry
counters, and runs the :class:`~repro.faults.audit.InvariantAuditor`
so a conservation bug surfaces at the exact step that introduced it.

Wiring is by component: pass ``gateway`` and/or ``ca`` as the plan's
fault kinds need them (``controlplane`` only adds its counters to the
audit). :meth:`arm` checks every fault before it schedules any, so a
plan it rejects schedules nothing. It rejects a plan that needs a
component the engine was not given, sets a ``param`` (the DES cascade
takes no magnitude), starts in the past, or names a target the gateway
cannot resolve. Targets are resolved again when each fault fires.
"""

from __future__ import annotations

from typing import Dict, List

from ..obs.runtime import get_telemetry
from ..resilience import QOD_FAILURES_PER_CRASH
from ..simcore import Simulator
from .audit import InvariantAuditor
from .plan import Fault, FaultPlan, FaultPlanError

__all__ = ["FaultEngine", "FaultTargetError"]


class FaultTargetError(FaultPlanError):
    """A fault's target could not be resolved against the topology."""


#: Component each fault kind needs wired into the engine.
_REQUIRES = {
    "replica_crash": "gateway",
    "backend_crash": "gateway",
    "az_crash": "gateway",
    "query_of_death": "gateway",
    "cert_rotation_failure": "ca",
}

#: Lifetime of the certificates a cert_rotation_failure recovery
#: reissues: long enough to outlive any run.
_REISSUE_TTL_S = 1e6


class FaultEngine:
    """Executes fault plans against the wired components."""

    def __init__(self, sim: Simulator, gateway=None, controlplane=None,
                 ca=None):
        self.sim = sim
        self.gateway = gateway
        self.controlplane = controlplane
        self.ca = ca
        self.auditor = InvariantAuditor(gateway=gateway,
                                        controlplane=controlplane)
        #: Chronological record of every injection/recovery.
        self.timeline: List[Dict[str, object]] = []
        #: Sessions disrupted so far, per fault scope.
        self.disrupted: Dict[str, int] = {}

    # -- arming --------------------------------------------------------------
    def arm(self, plan: FaultPlan) -> int:
        """Check every fault, then schedule them all; returns the number
        of faults this call armed."""
        for fault in plan.faults:
            component = _REQUIRES[fault.kind]
            if getattr(self, component) is None:
                raise FaultPlanError(
                    f"{fault.kind} needs a {component!r} wired into the "
                    f"FaultEngine")
            if fault.param:
                raise FaultPlanError(
                    f"{fault.kind}: the FaultEngine takes no param "
                    f"(got {fault.param})")
            if fault.at < self.sim.now:
                raise FaultPlanError(
                    f"{fault.kind} at t={fault.at} is in the past "
                    f"(sim.now={self.sim.now})")
            self._resolve(fault)
        for fault in plan.faults:
            delay = fault.at - self.sim.now
            self.sim.call_later(delay, self._fire, fault)
            if fault.duration_s is not None:
                self.sim.call_later(delay + fault.duration_s, self._heal,
                                    fault)
        return len(plan.faults)

    # -- target resolution ---------------------------------------------------
    def _resolve(self, fault: Fault) -> None:
        """Raise :class:`FaultTargetError` unless ``fault``'s target
        names a component the gateway has now."""
        kind = fault.kind
        if kind == "replica_crash":
            self._resolve_replica(fault)
        elif kind == "backend_crash":
            self._resolve_backend(fault.target)
        elif kind == "az_crash":
            if fault.target not in self.gateway.backends_by_az:
                raise FaultTargetError(
                    f"{fault.target}: the gateway has no AZ of that name")
        elif kind == "query_of_death":
            self._resolve_service(fault.target)

    def _service_ids(self) -> List[int]:
        return sorted(self.gateway.service_backends)

    def _resolve_service(self, token: str) -> int:
        services = self._service_ids()
        if token.startswith("service:"):
            index = _index(token, "service")
            if index >= len(services):
                raise FaultTargetError(
                    f"{token}: only {len(services)} services registered")
            return services[index]
        try:
            service_id = int(token)
        except ValueError:
            raise FaultTargetError(
                f"service target must be 'service:<i>' or a service id, "
                f"got {token!r}") from None
        if service_id not in services:
            raise FaultTargetError(f"{token}: no service with that id")
        return service_id

    def _backend(self, name: str):
        try:
            return self.gateway.backend_by_name(name)
        except KeyError:
            raise FaultTargetError(
                f"{name}: the gateway has no backend of that name") from None

    def _resolve_backend(self, target: str) -> str:
        """``service:i/backend:j`` or a literal name → backend name."""
        if "/" not in target:
            return self._backend(target).name
        service_token, backend_token = target.split("/", 1)
        service_id = self._resolve_service(service_token)
        backends = self.gateway.service_backends[service_id]
        index = _index(backend_token, "backend")
        if index >= len(backends):
            raise FaultTargetError(
                f"{target}: service {service_id} has only "
                f"{len(backends)} backends")
        return backends[index].name

    def _resolve_replica(self, fault: Fault):
        """→ (backend_name, replica_name) for a replica_crash fault."""
        if "/" not in fault.target:
            backend = self._backend(fault.backend)
            if fault.target not in {r.name for r in backend.replicas}:
                raise FaultTargetError(
                    f"{fault.target}: backend {backend.name} has no "
                    f"replica of that name")
            return backend.name, fault.target
        prefix, replica_token = fault.target.rsplit("/", 1)
        backend_name = self._resolve_backend(prefix)
        backend = self._backend(backend_name)
        index = _index(replica_token, "replica")
        if index >= len(backend.replicas):
            raise FaultTargetError(
                f"{fault.target}: backend {backend_name} has only "
                f"{len(backend.replicas)} replicas")
        return backend_name, backend.replicas[index].name

    # -- firing --------------------------------------------------------------
    def _fire(self, fault: Fault) -> None:
        detail = self._inject(fault)
        self._note("inject", fault, detail)

    def _heal(self, fault: Fault) -> None:
        detail = self._recover(fault)
        self._note("recover", fault, detail)

    def _inject(self, fault: Fault) -> str:
        kind = fault.kind
        gateway = self.gateway
        if kind == "replica_crash":
            backend_name, replica_name = self._resolve_replica(fault)
            disrupted = self._tally("replica", gateway.fail_replica(
                backend_name, replica_name))
            return f"{replica_name} ({disrupted} sessions)"
        if kind == "backend_crash":
            name = self._resolve_backend(fault.target)
            disrupted = self._tally("backend", gateway.fail_backend(name))
            return f"{name} ({disrupted} sessions)"
        if kind == "az_crash":
            disrupted = self._tally("az", gateway.fail_az(fault.target))
            return f"{fault.target} ({disrupted} sessions)"
        if kind == "query_of_death":
            service_id = self._resolve_service(fault.target)
            crashed = self._query_of_death(service_id)
            return f"service {service_id} ({crashed} backends cascaded)"
        if kind == "cert_rotation_failure":
            generation = self.ca.rotate_secret()
            return f"CA secret rotated to gen{generation}, certs orphaned"
        raise FaultPlanError(f"unhandled fault kind {kind!r}")

    def _recover(self, fault: Fault) -> str:
        kind = fault.kind
        gateway = self.gateway
        if kind == "replica_crash":
            backend_name, replica_name = self._resolve_replica(fault)
            gateway.recover_replica(backend_name, replica_name)
            return replica_name
        if kind == "backend_crash":
            name = self._resolve_backend(fault.target)
            gateway.recover_backend(name)
            return name
        if kind == "az_crash":
            gateway.recover_az(fault.target)
            return fault.target
        if kind == "query_of_death":
            service_id = self._resolve_service(fault.target)
            for backend in list(gateway.service_backends[service_id]):
                gateway.recover_backend(backend.name)
            return f"service {service_id}"
        if kind == "cert_rotation_failure":
            reissued = self.ca.reissue_all(self.sim.now + _REISSUE_TTL_S)
            return f"{len(reissued)} certs reissued"
        raise FaultPlanError(f"unhandled fault kind {kind!r}")

    def _query_of_death(self, service_id: int) -> int:
        """Crash the service's backends one by one; returns how many.

        With resilience policies installed on the gateway, the cascade
        is *contained*: each poisoned backend's death feeds the
        service's circuit breaker as windowed dispatch failures, and
        the cascade halts as soon as the breaker opens — the poison
        query stops being forwarded, so the remaining backends live.
        """
        policies = self.gateway.resilience
        crashed = 0
        for backend in list(self.gateway.service_backends[service_id]):
            if policies is not None and not policies.allow_dispatch(
                    service_id, self.sim.now):
                break
            self._tally("backend", self.gateway.fail_backend(backend.name))
            crashed += 1
            if policies is not None:
                policies.record_dispatch(
                    service_id, self.sim.now, ok=False,
                    count=QOD_FAILURES_PER_CRASH)
        return crashed

    def _tally(self, scope: str, disrupted: int) -> int:
        self.disrupted[scope] = self.disrupted.get(scope, 0) + disrupted
        return disrupted

    def _note(self, action: str, fault: Fault, detail: str) -> None:
        entry = {"t": self.sim.now, "action": action, "kind": fault.kind,
                 "target": fault.target, "detail": detail}
        self.timeline.append(entry)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc(f"faults_{action}ed_total", kind=fault.kind)
        self.auditor.check(
            context=f"{action}:{fault.kind}:{fault.target or '-'}")


def _index(token: str, label: str) -> int:
    prefix = f"{label}:"
    if not token.startswith(prefix):
        raise FaultTargetError(
            f"expected '{label}:<index>' in target, got {token!r}")
    try:
        index = int(token[len(prefix):])
    except ValueError:
        raise FaultTargetError(
            f"non-integer index in {token!r}") from None
    if index < 0:
        raise FaultTargetError(f"negative index in {token!r}")
    return index
