"""Conservation invariants checked after every fault and recovery.

The :class:`InvariantAuditor` is the bug-finding half of the fault
subsystem: after each injection or recovery it re-derives the
gateway's externally visible state from first principles and asserts
it agrees with what the bookkeeping claims. The catalog:

``sessions-in-range``
    Every replica's session count sits in ``[0, capacity]``.
``dead-replica-sessions``
    An unhealthy replica holds zero sessions — its SmartNIC table died
    with the VM (stale counts here were a real pre-plan bug: failures
    injected below the gateway API left sessions parked on corpses).
``session-conservation``
    Fluid-mode sessions carried by a service's backends never exceed
    the assigned total, and — when any backend is available — fall
    short only by integer-division slack (< one share per target).
``availability-consistency``
    ``MeshGateway.service_outage`` agrees with availability re-derived from
    backend/replica health (including the sandbox override); no
    service is marked up with zero live backends.
``dns-consistency``
    Each (service, AZ) DNS record's health flag equals "that service
    has a healthy backend in that AZ" (stale records were the other
    real pre-plan bug: replica-scoped failures never refreshed DNS).
``water-levels``
    Backend water levels stay within ``[0, 1]``.
``counters-monotone``
    Every ambient telemetry *counter* family total is non-decreasing
    between checks (gauges may move freely).
``controlplane-counters``
    Push/byte totals are non-negative and monotone; the injected push
    delay is never negative.
``breaker-legality``
    Every circuit-breaker transition recorded by the gateway's
    installed resilience policies is a legal state-machine edge
    (closed→open, open→half_open, half_open→closed/open) and
    transition times never regress — a breaker that "recovers"
    without passing through half-open is a mesh bug.

The resilience check runs only when the gateway has a policy set
installed (``gateway.resilience``), so unprotected runs audit
exactly what they did before.

A failed invariant raises :class:`InvariantViolation` (an
``AssertionError``: a violated invariant is a bug in the simulation,
not a condition for callers to handle) unless the auditor was built
with ``raise_on_violation=False``, in which case violations accumulate
on :attr:`InvariantAuditor.violations` for later inspection.
"""

from __future__ import annotations

from typing import Dict, List

from ..obs.runtime import get_telemetry
from ..resilience import BreakerIllegalTransition

__all__ = ["InvariantAuditor", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """One conservation property failed after a fault or recovery."""

    def __init__(self, invariant: str, message: str, context: str = ""):
        suffix = f" [after {context}]" if context else ""
        super().__init__(f"{invariant}: {message}{suffix}")
        self.invariant = invariant
        self.context = context


class InvariantAuditor:
    """Re-derives and checks system state after every fault step."""

    def __init__(self, gateway=None, controlplane=None,
                 raise_on_violation: bool = True):
        self.gateway = gateway
        self.controlplane = controlplane
        self.raise_on_violation = raise_on_violation
        self.checks_run = 0
        self.violations: List[InvariantViolation] = []
        self._counter_totals: Dict[str, float] = {}
        self._cp_totals = (0, 0)

    # -- entry point ---------------------------------------------------------
    def check(self, context: str = "") -> int:
        """Run every applicable invariant; returns how many ran.

        ``context`` names the step being audited (e.g.
        ``"inject:az_crash:az1"``) and is carried into violation
        messages and the telemetry counter.
        """
        checks = 0
        if self.gateway is not None:
            checks += self._check_sessions(context)
            checks += self._check_availability(context)
            checks += self._check_dns(context)
            checks += self._check_water_levels(context)
            if getattr(self.gateway, "resilience", None) is not None:
                checks += self._check_resilience(context)
        checks += self._check_counters_monotone(context)
        if self.controlplane is not None:
            checks += self._check_controlplane(context)
        self.checks_run += checks
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc("fault_invariant_checks_total", amount=checks)
        return checks

    def _violate(self, invariant: str, message: str, context: str) -> None:
        violation = InvariantViolation(invariant, message, context)
        self.violations.append(violation)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc("fault_invariant_violations_total",
                          invariant=invariant)
        if self.raise_on_violation:
            raise violation

    # -- gateway invariants --------------------------------------------------
    def _check_sessions(self, context: str) -> int:
        gateway = self.gateway
        for backend in gateway.all_backends:
            for replica in backend.replicas:
                used = replica.sessions_used
                if used < 0 or used > replica.config.session_capacity:
                    self._violate(
                        "sessions-in-range",
                        f"replica {replica.name} holds {used} sessions "
                        f"(capacity {replica.config.session_capacity})",
                        context)
                if not replica.healthy and used > 0:
                    self._violate(
                        "dead-replica-sessions",
                        f"unhealthy replica {replica.name} still holds "
                        f"{used} sessions", context)
        for service_id in sorted(gateway.service_sessions):
            total = gateway.service_sessions[service_id]
            carriers = list(gateway.service_backends.get(service_id, ()))
            sandbox = gateway.sandboxed.get(service_id)
            if sandbox is not None and sandbox not in carriers:
                carriers.append(sandbox)
            carried = sum(b.service_sessions(service_id) for b in carriers)
            if carried < 0 or carried > total:
                self._violate(
                    "session-conservation",
                    f"service {service_id} carries {carried} sessions, "
                    f"assigned {total}", context)
            targets = [b for b in carriers if b.is_healthy]
            if sandbox is not None:
                targets = [sandbox] if sandbox.is_healthy else []
            if total > 0 and targets and total - carried >= len(targets):
                self._violate(
                    "session-conservation",
                    f"service {service_id} lost {total - carried} of "
                    f"{total} sessions with {len(targets)} available "
                    f"backend(s) (more than integer-division slack)",
                    context)
        return 2

    def _check_availability(self, context: str) -> int:
        gateway = self.gateway
        for service_id in sorted(gateway.service_backends):
            reported_up = not gateway.service_outage(service_id)
            sandbox = gateway.sandboxed.get(service_id)
            if sandbox is not None:
                derived_up = any(r.healthy for r in sandbox.replicas)
            else:
                derived_up = any(
                    replica.healthy
                    for backend in gateway.service_backends[service_id]
                    for replica in backend.replicas)
            if reported_up != derived_up:
                self._violate(
                    "availability-consistency",
                    f"service {service_id} reported "
                    f"{'up' if reported_up else 'down'} but replica "
                    f"health derives "
                    f"{'up' if derived_up else 'down'}", context)
        return 1

    def _check_dns(self, context: str) -> int:
        gateway = self.gateway
        for service_id in sorted(gateway.service_backends):
            backends = gateway.service_backends[service_id]
            name = gateway._dns_name(service_id)
            records = {record.address: record
                       for record in gateway.dns.endpoints(name)}
            for az in sorted({b.az for b in backends}):
                record = records.get(f"vip-{service_id}-{az}")
                if record is None:
                    continue
                healthy_here = any(b.is_healthy for b in backends
                                   if b.az == az)
                if record.healthy != healthy_here:
                    self._violate(
                        "dns-consistency",
                        f"service {service_id} DNS in {az} says "
                        f"{'healthy' if record.healthy else 'down'} but "
                        f"backends derive "
                        f"{'healthy' if healthy_here else 'down'}",
                        context)
        return 1

    def _check_water_levels(self, context: str) -> int:
        for backend in self.gateway.all_backends:
            level = backend.water_level()
            if level < 0.0 or level > 1.0:
                self._violate(
                    "water-levels",
                    f"backend {backend.name} water level {level:.3f} "
                    f"outside [0, 1]", context)
        return 1

    def _check_resilience(self, context: str) -> int:
        """Breaker state-machine legality."""
        policies = self.gateway.resilience
        for service_id in sorted(policies.breakers):
            breaker = policies.breakers[service_id]
            try:
                breaker.audit_transitions()
            except BreakerIllegalTransition as exc:
                self._violate("breaker-legality", str(exc), context)
        return 1

    # -- telemetry / control-plane invariants --------------------------------
    def _check_counters_monotone(self, context: str) -> int:
        telemetry = get_telemetry()
        for family in telemetry.families():
            if family.kind != "counter":
                continue
            total = sum(child.value for child in family)
            previous = self._counter_totals.get(family.name, 0.0)
            if total < previous:
                self._violate(
                    "counters-monotone",
                    f"counter {family.name} went backwards "
                    f"({previous} -> {total})", context)
            self._counter_totals[family.name] = total
        return 1

    def _check_controlplane(self, context: str) -> int:
        cp = self.controlplane
        pushed, total_bytes = cp.updates_pushed, cp.bytes_pushed_total
        prev_pushed, prev_bytes = self._cp_totals
        if pushed < prev_pushed or total_bytes < prev_bytes:
            self._violate(
                "controlplane-counters",
                f"push totals went backwards "
                f"({prev_pushed}/{prev_bytes} -> {pushed}/{total_bytes})",
                context)
        if pushed < 0 or total_bytes < 0:
            self._violate(
                "controlplane-counters",
                f"negative control-plane counter (pushes={pushed}, "
                f"bytes={total_bytes})", context)
        self._cp_totals = (pushed, total_bytes)
        return 1
