"""The fault engines: compile a FaultPlan onto a simulator agenda.

Both tiers run a :class:`~repro.faults.plan.FaultPlan` through one
loop, :class:`_FaultEngineBase`: :meth:`~_FaultEngineBase.arm` checks
every fault, then schedules one direct call per injection (and one per
recovery, when the fault has a ``duration_s``) on the simulator's
agenda. Everything after that is ordinary discrete-event execution:
faults fire at exact virtual times, tie-broken by plan order through
the agenda's monotone sequence numbers, so a plan's effect is a pure
function of (plan, seed) — independent of wall clock, worker count, or
process interleaving. After every injection and recovery the loop
appends an entry to the engine's ``timeline``, the run's one fault
record: sweep points return it, exhibits put it in their result's
``faults``, and ``--report`` writes it to all three JSON artifacts at
any ``--jobs``. It also bumps the ``faults_injected_total`` /
``faults_recovered_total`` telemetry counters and runs the tier's
invariant audit, so a conservation bug surfaces at the exact step that
introduced it. The fluid tier's engine is
:class:`~repro.fleet.faults.FleetFaultEngine`.

:class:`FaultEngine` is the testbed's. Injections and recoveries call
the wired components directly: the gateway's ``fail_*``/``recover_*``
methods, which return the sessions a crash disrupted, and the CA. The
query-of-death cascade lives here, its one caller. ``disrupted``
tallies the disrupted sessions per scope (``"replica"``,
``"backend"``, ``"az"``; the cascade's crashes count under
``"backend"``). A target already down holds no sessions, so
overlapping faults never count a session twice. Its audit is the
:class:`~repro.faults.audit.InvariantAuditor`.

Wiring is by component: pass ``gateway`` and/or ``ca`` as the plan's
fault kinds need them (``controlplane`` only adds its counters to the
audit). :meth:`arm` checks every fault before it schedules any, so a
plan it rejects schedules nothing. It rejects a plan that needs a
component the engine was not given, sets a ``param`` (the DES cascade
takes no magnitude), starts in the past, or names a target the gateway
cannot resolve. Targets are resolved again when each fault fires.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..obs.runtime import get_telemetry
from ..resilience import QOD_FAILURES_PER_CRASH
from ..simcore import Simulator
from .audit import InvariantAuditor
from .plan import Fault, FaultPlan, FaultPlanError

__all__ = ["FaultEngine", "FaultTargetError"]


class FaultTargetError(FaultPlanError):
    """A fault's target could not be resolved against the topology."""


class _FaultEngineBase:
    """The arm/fire/heal/note loop both tiers' engines share; a tier
    supplies ``_inject``/``_recover`` (each returning the timeline
    detail) and ``_audit(context)``, and may extend ``_check``."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: Chronological record of every injection/recovery.
        self.timeline: List[Dict[str, object]] = []

    def arm(self, plan: FaultPlan) -> int:
        """Check every fault, then schedule them all; returns the number
        of faults this call armed."""
        for fault in plan.faults:
            self._check(fault)
        for fault in plan.faults:
            delay = fault.at - self.sim.now
            steps = [(delay, self._fire)]
            if fault.duration_s is not None:
                steps.append((delay + fault.duration_s, self._heal))
            for when, step in steps:
                self.sim.call_later(when, step, fault)
        return len(plan.faults)

    def _check(self, fault: Fault) -> None:
        """Raise unless ``fault`` can be armed; a tier extends this with
        its own checks and calls it where a past ``at`` should fail."""
        if fault.at < self.sim.now:
            raise FaultPlanError(
                f"{fault.kind} at t={fault.at} is in the past "
                f"(sim.now={self.sim.now})")

    def _fire(self, fault: Fault) -> None:
        self._note("inject", fault, self._inject(fault))

    def _heal(self, fault: Fault) -> None:
        self._note("recover", fault, self._recover(fault))

    def _note(self, action: str, fault: Fault, detail: str) -> None:
        entry = {"t": self.sim.now, "action": action, "kind": fault.kind,
                 "target": fault.target, "detail": detail}
        self.timeline.append(entry)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc(f"faults_{action}ed_total", kind=fault.kind)
        self._audit(f"{action}:{fault.kind}:{fault.target or '-'}")


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


class FaultEngine(_FaultEngineBase):
    """Executes fault plans against the wired components."""

    def __init__(self, sim: Simulator, gateway=None, controlplane=None,
                 ca=None):
        super().__init__(sim)
        self.gateway = gateway
        self.controlplane = controlplane
        self.ca = ca
        self.auditor = InvariantAuditor(gateway=gateway,
                                        controlplane=controlplane)
        #: Sessions disrupted so far, per fault scope.
        self.disrupted: Dict[str, int] = {}

    def _check(self, fault: Fault) -> None:
        component = _REQUIRES[fault.kind]
        if getattr(self, component) is None:
            raise FaultPlanError(
                f"{fault.kind} needs a {component!r} wired into the "
                f"FaultEngine")
        if fault.param:
            raise FaultPlanError(
                f"{fault.kind}: the FaultEngine takes no param "
                f"(got {fault.param})")
        super()._check(fault)
        self._target(fault)

    # -- target resolution ---------------------------------------------------
    def _target(self, fault: Fault):
        """What ``fault`` acts on now: ``(backend, replica)``, a
        backend, an AZ name or a service id; raises
        :class:`FaultTargetError` if the gateway has no such thing."""
        kind = fault.kind
        if kind == "replica_crash":
            return self._replica(fault.target)
        if kind == "backend_crash":
            return self._backend(fault.target)
        if kind == "az_crash":
            if fault.target not in self.gateway.backends_by_az:
                raise FaultTargetError(
                    f"{fault.target}: the gateway has no AZ of that name")
            return fault.target
        if kind == "query_of_death":
            return self._service(fault.target)
        return None

    def _service(self, target: str) -> int:
        """``service:i`` or a literal service id → service id."""
        services = sorted(self.gateway.service_backends)
        if target.startswith("service:"):
            (index,) = _parse_path(target, 1)
            return _pick(services, index, target, "the gateway", "services")
        try:
            service_id = int(target)
        except ValueError:
            raise FaultTargetError(
                f"service target must be 'service:<i>' or a service id, "
                f"got {target!r}") from None
        if service_id not in services:
            raise FaultTargetError(f"{target}: no service with that id")
        return service_id

    def _backend(self, target: str):
        """``service:i/backend:j`` or a literal backend name."""
        if "/" not in target:
            try:
                return self.gateway.backend_by_name(target)
            except KeyError:
                raise FaultTargetError(
                    f"{target}: the gateway has no backend of that "
                    f"name") from None
        return self._backend_at(target, *_parse_path(target, 2))

    def _backend_at(self, target: str, service: int, backend: int):
        service_id = _pick(sorted(self.gateway.service_backends), service,
                           target, "the gateway", "services")
        return _pick(self.gateway.service_backends[service_id], backend,
                     target, f"service {service_id}", "backends")

    def _replica(self, target: str):
        """``service:i/backend:j/replica:k`` or a literal replica name
        (unique across the gateway) → ``(backend, replica)``."""
        if "/" not in target:
            for backend in self.gateway.all_backends:
                for replica in backend.replicas:
                    if replica.name == target:
                        return backend, replica
            raise FaultTargetError(
                f"{target}: the gateway has no replica of that name")
        service, backend, replica = _parse_path(target, 3)
        backend = self._backend_at(target, service, backend)
        return backend, _pick(backend.replicas, replica, target,
                              f"backend {backend.name}", "replicas")

    # -- firing --------------------------------------------------------------
    def _inject(self, fault: Fault) -> str:
        kind = fault.kind
        gateway = self.gateway
        target = self._target(fault)
        if kind == "replica_crash":
            backend, replica = target
            disrupted = self._tally("replica", gateway.fail_replica(
                backend.name, replica.name))
            return f"{replica.name} ({disrupted} sessions)"
        if kind == "backend_crash":
            disrupted = self._tally("backend",
                                    gateway.fail_backend(target.name))
            return f"{target.name} ({disrupted} sessions)"
        if kind == "az_crash":
            disrupted = self._tally("az", gateway.fail_az(target))
            return f"{target} ({disrupted} sessions)"
        if kind == "query_of_death":
            crashed = self._query_of_death(target)
            return f"service {target} ({crashed} backends cascaded)"
        generation = self.ca.rotate_secret()
        return f"CA secret rotated to gen{generation}, certs orphaned"

    def _recover(self, fault: Fault) -> str:
        kind = fault.kind
        gateway = self.gateway
        target = self._target(fault)
        if kind == "replica_crash":
            backend, replica = target
            gateway.recover_replica(backend.name, replica.name)
            return replica.name
        if kind == "backend_crash":
            gateway.recover_backend(target.name)
            return target.name
        if kind == "az_crash":
            gateway.recover_az(target)
            return target
        if kind == "query_of_death":
            for backend in list(gateway.service_backends[target]):
                gateway.recover_backend(backend.name)
            return f"service {target}"
        reissued = self.ca.reissue_all(self.sim.now + _REISSUE_TTL_S)
        return f"{len(reissued)} certs reissued"

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

    def _audit(self, context: str) -> None:
        self.auditor.check(context=context)


#: The levels of a symbolic target path, outermost first.
_LEVELS = ("service", "backend", "replica")


def _parse_path(target: str, depth: int) -> List[int]:
    """``service:i[/backend:j[/replica:k]]``, exactly ``depth`` levels
    deep → its indices."""
    tokens = target.split("/")
    if len(tokens) != depth:
        form = "/".join(f"{label}:<index>" for label in _LEVELS[:depth])
        raise FaultTargetError(f"expected a {form} target, got {target!r}")
    return [_index(token, label) for token, label in zip(tokens, _LEVELS)]


def _pick(items: Sequence, index: int, target: str, owner: str,
         noun: str):
    """``items[index]``, or a :class:`FaultTargetError` naming
    ``target`` when ``owner`` has fewer ``noun``."""
    if index >= len(items):
        raise FaultTargetError(
            f"{target}: {owner} has only {len(items)} {noun}")
    return items[index]


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
