"""The fault engine: compiles a FaultPlan onto a simulator agenda.

:meth:`FaultEngine.arm` walks a :class:`~repro.faults.plan.FaultPlan`
and schedules one direct call per injection (and one per recovery,
when the fault has a ``duration_s``) on the simulator's agenda via the
allocation-free ``_schedule_call`` path. Everything after that is
ordinary discrete-event execution: faults fire at exact virtual times,
tie-broken by plan order through the agenda's monotone sequence
numbers, so a plan's effect is a pure function of (plan, seed) —
independent of wall clock, worker count, or process interleaving.

After every injection and recovery the engine appends a timeline entry
(drained into run reports via :mod:`repro.faults.runtime`), bumps the
``faults_injected_total`` / ``faults_recovered_total`` telemetry
counters, and — unless auditing was disabled — runs the
:class:`~repro.faults.audit.InvariantAuditor` so a conservation bug
surfaces at the exact step that introduced it.

Wiring is by component: pass whichever of ``gateway`` /
``controlplane`` / ``ca`` / ``redirector`` the plan's fault kinds
touch; :meth:`arm` rejects a plan that needs a component the engine
was not given, at arm time rather than mid-run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..core.failure import FailureInjector
from ..obs.runtime import get_telemetry
from ..obs.trace import get_tracer
from ..simcore import Simulator
from .audit import InvariantAuditor
from .plan import Fault, FaultPlan, FaultPlanError
from .runtime import register_timeline

__all__ = ["FaultEngine", "FaultTargetError"]


class FaultTargetError(FaultPlanError):
    """A fault's target could not be resolved against the topology."""


#: Component each fault kind needs wired into the engine.
_REQUIRES = {
    "replica_crash": "gateway",
    "backend_crash": "gateway",
    "az_crash": "gateway",
    "query_of_death": "gateway",
    "controlplane_push_delay": "controlplane",
    "controlplane_partition": "controlplane",
    "cert_rotation_failure": "ca",
    "nagle_misconfig": "redirector",
}


class FaultEngine:
    """Executes fault plans against the wired components."""

    def __init__(self, sim: Simulator, gateway=None, controlplane=None,
                 ca=None, redirector=None,
                 auditor: Optional[InvariantAuditor] = None,
                 audit: bool = True, reissue_ttl_s: float = 1e6):
        self.sim = sim
        self.gateway = gateway
        self.controlplane = controlplane
        self.ca = ca
        #: Current redirector config; ``nagle_misconfig`` swaps in a
        #: degraded copy here, recovery restores the pristine one.
        #: Consumers that want the fault to bite must read the
        #: redirector through this attribute.
        self.redirector = redirector
        self._pristine_redirector = redirector
        self.reissue_ttl_s = reissue_ttl_s
        self.injector = (FailureInjector(sim, gateway)
                         if gateway is not None else None)
        if auditor is not None:
            self.auditor = auditor
        elif audit:
            self.auditor = InvariantAuditor(gateway=gateway,
                                            controlplane=controlplane)
        else:
            self.auditor = None
        #: Chronological record of every injection/recovery, drained
        #: into run reports by ``repro.runtime.driver``.
        self.timeline: List[Dict[str, object]] = []
        register_timeline(self.timeline)
        self.armed_faults = 0

    # -- arming --------------------------------------------------------------
    def arm(self, plan: FaultPlan) -> int:
        """Schedule every fault in ``plan``; returns how many."""
        for fault in plan.faults:
            component = _REQUIRES[fault.kind]
            if getattr(self, component) is None:
                raise FaultPlanError(
                    f"{fault.kind} needs a {component!r} wired into the "
                    f"FaultEngine")
        for fault in plan.faults:
            delay = fault.at - self.sim.now
            if delay < 0:
                raise FaultPlanError(
                    f"{fault.kind} at t={fault.at} is in the past "
                    f"(sim.now={self.sim.now})")
            self.sim._schedule_call(self._fire, fault, delay)
            if fault.duration_s is not None:
                self.sim._schedule_call(self._heal, fault,
                                        delay + fault.duration_s)
            self.armed_faults += 1
        return self.armed_faults

    # -- target resolution ---------------------------------------------------
    def _service_ids(self) -> List[int]:
        return sorted(self.gateway.service_backends)

    def _resolve_service(self, token: str) -> int:
        if token.startswith("service:"):
            index = _index(token, "service")
            services = self._service_ids()
            if index >= len(services):
                raise FaultTargetError(
                    f"{token}: only {len(services)} services registered")
            return services[index]
        try:
            return int(token)
        except ValueError:
            raise FaultTargetError(
                f"service target must be 'service:<i>' or a service id, "
                f"got {token!r}") from None

    def _resolve_backend(self, target: str) -> str:
        """``service:i/backend:j`` or a literal name → backend name."""
        if "/" not in target:
            return target
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
            return fault.backend, fault.target
        prefix, replica_token = fault.target.rsplit("/", 1)
        backend_name = self._resolve_backend(prefix)
        backend = self.gateway.backend_by_name(backend_name)
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
        if kind == "replica_crash":
            backend_name, replica_name = self._resolve_replica(fault)
            event = self.injector.fail_replica(backend_name, replica_name)
            return f"{replica_name} ({event.sessions_disrupted} sessions)"
        if kind == "backend_crash":
            name = self._resolve_backend(fault.target)
            event = self.injector.fail_backend(name)
            return f"{name} ({event.sessions_disrupted} sessions)"
        if kind == "az_crash":
            event = self.injector.fail_az(fault.target)
            return f"{fault.target} ({event.sessions_disrupted} sessions)"
        if kind == "query_of_death":
            service_id = self._resolve_service(fault.target)
            events = self.injector.query_of_death(service_id)
            return (f"service {service_id} "
                    f"({len(events)} backends cascaded)")
        if kind == "controlplane_push_delay":
            self.controlplane.inject_push_delay(fault.param)
            return f"+{fault.param:g}s southbound"
        if kind == "controlplane_partition":
            self.controlplane.partition()
            return "controller partitioned"
        if kind == "cert_rotation_failure":
            generation = self.ca.rotate_secret()
            return f"CA secret rotated to gen{generation}, certs orphaned"
        if kind == "nagle_misconfig":
            self.redirector = replace(self._pristine_redirector,
                                      nagle_enabled=False)
            return "nagle aggregation lost"
        raise FaultPlanError(f"unhandled fault kind {kind!r}")

    def _recover(self, fault: Fault) -> str:
        kind = fault.kind
        if kind == "replica_crash":
            backend_name, replica_name = self._resolve_replica(fault)
            self.injector.recover_replica(backend_name, replica_name)
            return replica_name
        if kind == "backend_crash":
            name = self._resolve_backend(fault.target)
            self.injector.recover_backend(name)
            return name
        if kind == "az_crash":
            self.injector.recover_az(fault.target)
            return fault.target
        if kind == "query_of_death":
            service_id = self._resolve_service(fault.target)
            self.injector.recover_service(service_id)
            return f"service {service_id}"
        if kind == "controlplane_push_delay":
            self.controlplane.clear_push_delay()
            return "southbound delay cleared"
        if kind == "controlplane_partition":
            self.controlplane.heal_partition()
            return "partition healed"
        if kind == "cert_rotation_failure":
            reissued = self.ca.reissue_all(self.sim.now + self.reissue_ttl_s)
            return f"{len(reissued)} certs reissued"
        if kind == "nagle_misconfig":
            self.redirector = self._pristine_redirector
            return "nagle restored"
        raise FaultPlanError(f"unhandled fault kind {kind!r}")

    def _note(self, action: str, fault: Fault, detail: str) -> None:
        entry = {"t": self.sim.now, "action": action, "kind": fault.kind,
                 "target": fault.target, "detail": detail}
        self.timeline.append(entry)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc(f"faults_{action}ed_total", kind=fault.kind)
        tracer = get_tracer()
        if tracer is not None and tracer.collector is not None:
            # Annotate the fault onto the trace stream so analytics can
            # line up injections with the first degraded trace.
            tracer.collector.mark_fault(self.sim.now, action, fault.kind,
                                        fault.target, detail)
        if self.auditor is not None:
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
