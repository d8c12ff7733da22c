"""Tests for ``repro.faults``: plans, the engine, and the auditor."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FailureInjector, availability_report
from repro.experiments.cloud_ops import build_production_gateway
from repro.experiments.recovery import _fig8_seed_run, fig8_plan
from repro.faults import (
    FAULT_KINDS,
    Fault,
    FaultEngine,
    FaultPlan,
    FaultPlanError,
    FaultTargetError,
    InvariantAuditor,
    InvariantViolation,
    get_fault_plan,
    take_timelines,
    use_fault_plan,
)
from repro.simcore import Simulator


def make_chaos_gateway(seed=53, services=6):
    sim = Simulator(seed)
    gateway, tenant_services = build_production_gateway(
        sim, backends_per_az=6, services=services)
    for service in tenant_services:
        gateway.set_service_sessions(service.service_id, 12_000)
        gateway.set_service_load(service.service_id, 20_000.0)
    return sim, gateway, tenant_services


_TIMES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                   allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False,
                      allow_infinity=False)


@st.composite
def _faults(draw):
    """Any valid :class:`Fault`, every kind and optional field."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    target = ""
    if kind == "replica_crash":
        target = "service:0/backend:1/replica:0"
    elif kind in ("backend_crash", "az_crash", "query_of_death"):
        target = draw(st.sampled_from(["service:0", "backend-3", "az2"]))
    param = draw(_POSITIVE if kind == "controlplane_push_delay"
                 else st.just(0.0) | _TIMES)
    return Fault(kind=kind, at=draw(_TIMES), target=target,
                 duration_s=draw(st.none() | _POSITIVE), param=param)


class TestFaultPlan:
    def test_roundtrip_through_json(self):
        plan = fig8_plan()
        clone = FaultPlan.from_json(json.loads(plan.canonical()))
        assert clone == plan
        assert clone.canonical() == plan.canonical()

    def test_canonical_is_key_sorted_and_compact(self):
        plan = FaultPlan.of(Fault(kind="az_crash", at=3.0, target="az1"))
        assert plan.canonical() == \
            '[{"at":3.0,"kind":"az_crash","target":"az1"}]'

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            Fault(kind="disk_melt", target="x")

    def test_negative_time_and_duration_rejected(self):
        with pytest.raises(FaultPlanError, match="must be >= 0"):
            Fault(kind="az_crash", at=-1.0, target="az1")
        with pytest.raises(FaultPlanError, match="duration_s"):
            Fault(kind="az_crash", at=1.0, target="az1", duration_s=0.0)

    def test_targeted_kinds_need_targets(self):
        with pytest.raises(FaultPlanError, match="needs a target"):
            Fault(kind="backend_crash")

    def test_push_delay_needs_positive_param(self):
        with pytest.raises(FaultPlanError, match="positive param"):
            Fault(kind="controlplane_push_delay", at=1.0)

    def test_literal_replica_needs_owning_backend(self):
        with pytest.raises(FaultPlanError, match="owning 'backend'"):
            Fault(kind="replica_crash", target="backend-3-r1")
        # Either form of ownership is fine.
        Fault(kind="replica_crash", target="backend-3-r1",
              backend="backend-3")
        Fault(kind="replica_crash", target="service:0/backend:0/replica:0")

    def test_unknown_json_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault field"):
            Fault.from_json({"kind": "az_crash", "target": "az1",
                             "blast_radius": 3})

    def test_non_numeric_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="must be a number"):
            Fault.from_json({"kind": "az_crash", "target": "az1",
                             "at": "noon"})

    def test_sim_and_serve_fault_split(self):
        plan = FaultPlan.of(
            Fault(kind="serve_worker_death", param=2),
            Fault(kind="az_crash", at=5.0, target="az1"))
        assert [f.kind for f in plan.sim_faults()] == ["az_crash"]
        assert [f.kind for f in plan.serve_faults()] == \
            ["serve_worker_death"]

    def test_horizon_covers_recoveries(self):
        plan = FaultPlan.of(
            Fault(kind="az_crash", at=10.0, target="az1", duration_s=30.0),
            Fault(kind="backend_crash", at=35.0, target="backend-1"))
        assert plan.horizon() == 40.0

    def test_every_kind_is_constructible(self):
        for kind in FAULT_KINDS:
            kwargs = {"kind": kind}
            if kind in ("replica_crash", "backend_crash", "az_crash",
                        "query_of_death"):
                kwargs["target"] = "service:0/backend:0/replica:0" \
                    if kind == "replica_crash" else "service:0"
            if kind == "controlplane_push_delay":
                kwargs["param"] = 1.0
            Fault(**kwargs)

    @pytest.mark.parametrize("field", ["at", "duration_s", "param"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_rejected_by_name(self, field, value):
        fields = {"kind": "controlplane_push_delay", "at": 1.0,
                  "param": 1.0, field: value}
        with pytest.raises(FaultPlanError, match=f"{field} must be finite"):
            Fault(**fields)
        with pytest.raises(FaultPlanError, match=f"{field} must be finite"):
            Fault.from_json(json.loads(json.dumps(fields)))

    def test_canonical_refuses_nan(self):
        fault = Fault(kind="az_crash", at=1.0, target="az1")
        object.__setattr__(fault, "at", math.nan)  # bypass validation
        with pytest.raises(ValueError):
            FaultPlan.of(fault).canonical()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_faults(), max_size=6))
    def test_canonical_roundtrip_property(self, faults):
        plan = FaultPlan(tuple(faults))
        clone = FaultPlan.from_json(json.loads(plan.canonical()))
        assert clone == plan
        assert clone.canonical() == plan.canonical()


class TestFaultEngine:
    def test_arm_rejects_unwired_component(self):
        sim = Simulator(1)
        engine = FaultEngine(sim)  # nothing wired
        plan = FaultPlan.of(Fault(kind="az_crash", at=1.0, target="az1"))
        with pytest.raises(FaultPlanError, match="gateway"):
            engine.arm(plan)

    def test_arm_rejects_faults_in_the_past(self):
        sim, gateway, _ = make_chaos_gateway()
        sim.run(until=10.0)
        engine = FaultEngine(sim, gateway=gateway)
        with pytest.raises(FaultPlanError, match="in the past"):
            engine.arm(FaultPlan.of(
                Fault(kind="az_crash", at=5.0, target="az1")))

    def test_symbolic_target_out_of_range(self):
        sim, gateway, _ = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(
            Fault(kind="backend_crash", at=1.0, target="service:0/backend:99")))
        with pytest.raises(FaultTargetError, match="only"):
            sim.run(until=2.0)

    def test_symbolic_target_bad_syntax(self):
        sim, gateway, _ = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(
            Fault(kind="query_of_death", at=1.0, target="svc-first")))
        with pytest.raises(FaultTargetError):
            sim.run(until=2.0)

    def test_replica_crash_and_recovery(self):
        sim, gateway, services = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(
            Fault(kind="replica_crash", at=5.0,
                  target="service:0/backend:0/replica:0", duration_s=10.0)))
        sim.run(until=6.0)
        victim = sorted(gateway.service_backends)[0]
        backend = gateway.service_backends[victim][0]
        assert not backend.replicas[0].healthy
        assert availability_report(gateway)[victim]  # sibling replica holds
        sim.run(until=20.0)
        assert backend.replicas[0].healthy

    def test_az_crash_survived_and_timeline_recorded(self):
        sim, gateway, _ = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(
            Fault(kind="az_crash", at=5.0, target="az1", duration_s=10.0)))
        sim.run(until=6.0)
        assert all(availability_report(gateway).values())
        sim.run(until=20.0)
        assert [(e["t"], e["action"]) for e in engine.timeline] == \
            [(5.0, "inject"), (15.0, "recover")]
        assert engine.auditor.checks_run > 0
        assert engine.auditor.violations == []

    def test_query_of_death_blast_radius(self):
        sim, gateway, services = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(
            Fault(kind="query_of_death", at=5.0, target="service:2",
                  duration_s=10.0)))
        sim.run(until=6.0)
        victim = sorted(gateway.service_backends)[2]
        report = availability_report(gateway)
        assert not report[victim]
        assert all(up for sid, up in report.items() if sid != victim)
        sim.run(until=20.0)
        assert all(availability_report(gateway).values())

    def test_overlapping_faults_do_not_double_count(self):
        """AZ crash with a backend crash inside it: the backend's
        sessions are disrupted once, not twice."""
        sim, gateway, _ = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        backend = gateway.backends_by_az["az1"][0]
        before = sum(r.sessions_used for r in backend.replicas)
        engine.arm(FaultPlan.of(
            Fault(kind="az_crash", at=5.0, target="az1", duration_s=20.0),
            Fault(kind="backend_crash", at=10.0, target=backend.name,
                  duration_s=5.0)))
        sim.run(until=30.0)
        disrupted = engine.injector.disrupted_by_scope()
        assert disrupted.get("backend", 0) == 0  # already down with the AZ
        assert disrupted["az"] >= before

    def test_plan_order_breaks_same_time_ties(self):
        sim, gateway, _ = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(
            Fault(kind="az_crash", at=5.0, target="az1"),
            Fault(kind="az_crash", at=5.0, target="az2")))
        sim.run(until=6.0)
        assert [e["target"] for e in engine.timeline] == ["az1", "az2"]

    def test_nagle_misconfig_swaps_and_restores(self):
        from repro.kernel.redirection import EbpfRedirect
        sim = Simulator(3)
        pristine = EbpfRedirect()
        engine = FaultEngine(sim, redirector=pristine, audit=False)
        engine.arm(FaultPlan.of(
            Fault(kind="nagle_misconfig", at=1.0, duration_s=2.0)))
        sim.run(until=1.5)
        assert engine.redirector.nagle_enabled is False
        sim.run(until=5.0)
        assert engine.redirector is pristine

    def test_cert_rotation_failure_and_reissue(self):
        from repro.crypto import CertificateAuthority
        sim = Simulator(4)
        ca = CertificateAuthority("test-ca")
        cert = ca.issue("spiffe://t/s", "t", not_after=1e9)
        engine = FaultEngine(sim, ca=ca, audit=False)
        engine.arm(FaultPlan.of(
            Fault(kind="cert_rotation_failure", at=1.0, duration_s=2.0)))
        sim.run(until=2.0)
        assert not ca.verify(cert, now=sim.now)
        sim.run(until=5.0)
        assert ca.verify(ca.issued_for("spiffe://t/s"), now=sim.now)


class TestDeterminism:
    def test_seed_run_is_reproducible(self):
        spec = (53, fig8_plan().canonical())
        first = _fig8_seed_run(spec)
        second = _fig8_seed_run(spec)
        assert json.dumps(first, sort_keys=True, default=str) == \
            json.dumps(second, sort_keys=True, default=str)


class TestInvariantAuditor:
    def test_clean_gateway_passes(self):
        _sim, gateway, _ = make_chaos_gateway()
        auditor = InvariantAuditor(gateway=gateway)
        assert auditor.check("baseline") > 0
        assert auditor.violations == []

    def test_catches_stale_dns_after_hidden_replica_kill(self):
        """Failures injected below the gateway API (the pre-plan bug):
        the auditor must notice DNS still resolving a dead AZ."""
        _sim, gateway, _ = make_chaos_gateway()
        for backend in gateway.backends_by_az["az1"]:
            for replica in backend.replicas:
                replica.healthy = False
                replica.sessions_used = 0
        auditor = InvariantAuditor(gateway=gateway)
        with pytest.raises(InvariantViolation, match="dns-consistency"):
            auditor.check("stale-dns")

    def test_catches_sessions_parked_on_dead_replica(self):
        _sim, gateway, _ = make_chaos_gateway()
        replica = gateway.all_backends[0].replicas[0]
        replica.healthy = False  # without clearing sessions_used
        assert replica.sessions_used > 0
        auditor = InvariantAuditor(gateway=gateway)
        with pytest.raises(InvariantViolation, match="dead-replica"):
            auditor.check("stale-sessions")

    def test_catches_lost_sessions(self):
        _sim, gateway, _ = make_chaos_gateway()
        sid = sorted(gateway.service_backends)[0]
        for backend in gateway.service_backends[sid]:
            backend.offer_sessions(sid, 0)  # sessions vanish, total doesn't
        auditor = InvariantAuditor(gateway=gateway)
        with pytest.raises(InvariantViolation, match="session-conservation"):
            auditor.check("lost-sessions")

    def test_collect_mode_accumulates_instead_of_raising(self):
        _sim, gateway, _ = make_chaos_gateway()
        replica = gateway.all_backends[0].replicas[0]
        replica.healthy = False
        auditor = InvariantAuditor(gateway=gateway,
                                   raise_on_violation=False)
        auditor.check("collect")
        assert len(auditor.violations) >= 1
        assert all(isinstance(v, InvariantViolation)
                   for v in auditor.violations)

    def test_violation_message_carries_context(self):
        violation = InvariantViolation("dns-consistency", "oops",
                                       context="inject:az_crash:az1")
        assert "inject:az_crash:az1" in str(violation)
        assert violation.invariant == "dns-consistency"


class TestAmbientPlan:
    def test_use_fault_plan_scopes_and_restores(self):
        plan = fig8_plan()
        assert get_fault_plan() is None
        with use_fault_plan(plan):
            assert get_fault_plan() is plan
            with use_fault_plan(None):
                assert get_fault_plan() is None
            assert get_fault_plan() is plan
        assert get_fault_plan() is None

    def test_engine_timelines_drain_once(self):
        take_timelines()  # drop anything a prior test leaked
        sim, gateway, _ = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(
            Fault(kind="az_crash", at=1.0, target="az1", duration_s=1.0)))
        sim.run(until=3.0)
        drained = take_timelines()
        assert engine.timeline in drained
        assert take_timelines() == []

    def test_ambient_plan_bypasses_result_cache(self, tmp_path):
        from repro.runtime import cached_run
        with use_fault_plan(fig8_plan()):
            with pytest.warns(RuntimeWarning, match="fault plan"):
                result, hit = cached_run("fig19",
                                         cache_dir=str(tmp_path / "cache"))
        assert not hit
        assert result.exp_id == "fig19"
