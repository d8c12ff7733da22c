"""Tests for ``repro.faults``: plans, the engine, and the auditor."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

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
)
from repro.fleet import (FleetConfig, FleetDemand, FleetFaultEngine,
                         FleetModel)
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
    # Only a query_of_death carries a magnitude (the fleet weight factor).
    param = draw(st.just(0.0) | _TIMES) if kind == "query_of_death" else 0.0
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

    @pytest.mark.parametrize("kind", ["disk_melt", "serve_worker_death"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            Fault(kind=kind, target="x")
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            Fault.from_json({"kind": kind, "target": "x"})

    def test_negative_time_and_duration_rejected(self):
        with pytest.raises(FaultPlanError, match="must be >= 0"):
            Fault(kind="az_crash", at=-1.0, target="az1")
        with pytest.raises(FaultPlanError, match="duration_s"):
            Fault(kind="az_crash", at=1.0, target="az1", duration_s=0.0)

    def test_targeted_kinds_need_targets(self):
        with pytest.raises(FaultPlanError, match="needs a target"):
            Fault(kind="backend_crash")

    def test_negative_param_rejected(self):
        with pytest.raises(FaultPlanError, match="param must be >= 0"):
            Fault(kind="query_of_death", target="service:0", param=-1.0)

    @pytest.mark.parametrize("kind", ["az_crash", "cert_rotation_failure"])
    def test_param_rejected_off_query_of_death(self, kind):
        target = "az1" if kind == "az_crash" else ""
        with pytest.raises(FaultPlanError, match="takes no param"):
            Fault(kind=kind, target=target, param=2.0)
        with pytest.raises(FaultPlanError, match="takes no param"):
            Fault.from_json({"kind": kind, "target": target, "param": 2.0})

    def test_literal_replica_needs_no_owner(self):
        """A replica name is unique, so the plan does not state its
        backend; a symbolic path carries the backend in the path."""
        Fault(kind="replica_crash", target="backend-3-r1")
        Fault(kind="replica_crash", target="service:0/backend:0/replica:0")

    def test_untargeted_kind_rejects_a_target(self):
        with pytest.raises(FaultPlanError, match="takes no target"):
            Fault(kind="cert_rotation_failure", target="service:0/backend:9")
        with pytest.raises(FaultPlanError, match="takes no target"):
            Fault.from_json({"kind": "cert_rotation_failure",
                             "target": "service:0/backend:9"})

    def test_backend_field_is_gone(self):
        with pytest.raises(FaultPlanError, match="unknown fault field"):
            Fault.from_json({"kind": "replica_crash",
                             "target": "service:0/backend:0/replica:0",
                             "backend": "backend-999"})

    def test_unknown_json_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault field"):
            Fault.from_json({"kind": "az_crash", "target": "az1",
                             "blast_radius": 3})

    def test_non_numeric_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="must be a number"):
            Fault.from_json({"kind": "az_crash", "target": "az1",
                             "at": "noon"})

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
            Fault(**kwargs)

    @pytest.mark.parametrize("field", ["at", "duration_s", "param"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_rejected_by_name(self, field, value):
        fields = {"kind": "query_of_death", "target": "service:0",
                  "at": 1.0, "param": 1.0, field: value}
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

    def test_arm_rejects_param(self):
        """The DES cascade takes no magnitude: a param would be ignored."""
        sim, gateway, _ = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        plan = FaultPlan.of(Fault(kind="query_of_death", at=1.0,
                                  target="service:0", param=3.0))
        with pytest.raises(FaultPlanError, match="takes no param"):
            engine.arm(plan)
        sim.run(until=10.0)
        assert engine.timeline == []

    @staticmethod
    def _assert_rejected(fault, match, error=FaultTargetError):
        """``arm`` raises ``error`` and schedules nothing."""
        sim, gateway, _ = make_chaos_gateway()
        sim.run(until=10.0)
        engine = FaultEngine(sim, gateway=gateway)
        agenda = list(sim._heap)
        plan = FaultPlan.of(
            Fault(kind="az_crash", at=20.0, target="az1"), fault)
        with pytest.raises(error, match=match):
            engine.arm(plan)
        assert sim._heap == agenda
        sim.run(until=40.0)
        assert engine.timeline == []
        assert all(backend.is_healthy
                   for backend in gateway.backends_by_az["az1"])

    def test_rejected_plan_schedules_nothing(self):
        """A fault in the past rejects the whole plan, including the
        valid fault ahead of it."""
        self._assert_rejected(Fault(kind="az_crash", at=5.0, target="az2"),
                              "in the past", error=FaultPlanError)

    def test_unknown_az_rejected_at_arm(self):
        self._assert_rejected(Fault(kind="az_crash", at=30.0, target="az9"),
                              "az9")

    @pytest.mark.parametrize("kind, target", [
        ("backend_crash", "service:99/backend:0"),
        ("query_of_death", "99"),
    ])
    def test_unknown_service_rejected_at_arm(self, kind, target):
        self._assert_rejected(Fault(kind=kind, at=30.0, target=target),
                              target.split("/")[0])

    def test_unknown_replica_rejected_at_arm(self):
        self._assert_rejected(
            Fault(kind="replica_crash", at=30.0,
                  target="service:0/backend:0/replica:99"), "replica:99")

    def test_unknown_literal_replica_rejected_at_arm(self):
        self._assert_rejected(
            Fault(kind="replica_crash", at=30.0, target="backend-999-r1"),
            "backend-999-r1")

    def test_unknown_literal_backend_rejected_at_arm(self):
        self._assert_rejected(
            Fault(kind="backend_crash", at=30.0, target="backend-999"),
            "backend-999")

    def test_symbolic_target_out_of_range(self):
        self._assert_rejected(
            Fault(kind="backend_crash", at=30.0,
                  target="service:0/backend:99"), "only")

    def test_symbolic_target_bad_syntax(self):
        self._assert_rejected(
            Fault(kind="query_of_death", at=30.0, target="svc-first"),
            "svc-first")

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
        assert not gateway.service_outage(victim)  # sibling replica holds
        sim.run(until=20.0)
        assert backend.replicas[0].healthy

    def test_az_crash_survived_and_timeline_recorded(self):
        sim, gateway, _ = make_chaos_gateway()
        engine = FaultEngine(sim, gateway=gateway)
        armed = engine.arm(FaultPlan.of(
            Fault(kind="az_crash", at=5.0, target="az1", duration_s=10.0)))
        assert armed == 1
        sim.run(until=6.0)
        assert not any(map(gateway.service_outage, gateway.service_backends))
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
        assert gateway.service_outage(victim)
        assert not any(gateway.service_outage(sid)
                       for sid in gateway.service_backends if sid != victim)
        sim.run(until=20.0)
        assert not any(map(gateway.service_outage, gateway.service_backends))

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
        disrupted = engine.disrupted
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

    def test_cert_rotation_failure_and_reissue(self):
        from repro.crypto import CertificateAuthority
        sim = Simulator(4)
        ca = CertificateAuthority("test-ca")
        cert = ca.issue("spiffe://t/s", "t", not_after=1e9)
        engine = FaultEngine(sim, ca=ca)
        engine.arm(FaultPlan.of(
            Fault(kind="cert_rotation_failure", at=1.0, duration_s=2.0)))
        sim.run(until=2.0)
        assert not ca.verify(cert, now=sim.now)
        sim.run(until=5.0)
        assert ca.verify(ca.issued_for("spiffe://t/s"), now=sim.now)


def _recording(monkeypatch, owner, name):
    """Wrap ``owner.name`` (an audit call) to record its contexts."""
    contexts = []
    check = getattr(owner, name)

    def record(context=""):
        contexts.append(context)
        return check(context=context)

    monkeypatch.setattr(owner, name, record)
    return contexts


def _testbed_tier(monkeypatch):
    sim, gateway, _ = make_chaos_gateway()
    engine = FaultEngine(sim, gateway=gateway)
    return sim, engine, _recording(monkeypatch, engine.auditor, "check")


def _fleet_tier(monkeypatch):
    sim = Simulator(7)
    model = FleetModel(sim, FleetConfig(azs=3, backends_per_az=8,
                                        services=12, sample_every=1),
                       FleetDemand(mean_sessions=200.0, session_rps=2.0))
    model.start(60.0)
    engine = FleetFaultEngine(sim, model)
    return sim, engine, _recording(monkeypatch, model, "check_invariants")


#: Faults with the same meaning on both tiers: symbolic paths and a
#: literal AZ name, every topology kind.
_SHARED_PLAN = FaultPlan.of(
    Fault(kind="backend_crash", at=5.0, target="service:0/backend:0",
          duration_s=10.0),
    Fault(kind="replica_crash", at=7.0,
          target="service:1/backend:0/replica:0", duration_s=5.0),
    Fault(kind="az_crash", at=20.0, target="az1", duration_s=5.0),
    Fault(kind="query_of_death", at=30.0, target="service:2",
          duration_s=5.0))


@pytest.mark.parametrize("tier", [_testbed_tier, _fleet_tier],
                         ids=["testbed", "fleet"])
class TestOneEngineContract:
    """Both tiers' engines run one arm/fire/heal/note loop."""

    def test_arm_returns_the_fault_count(self, tier, monkeypatch):
        sim, engine, _ = tier(monkeypatch)
        assert engine.arm(_SHARED_PLAN) == 4
        sim.run(until=60.0)
        assert len(engine.timeline) == 8

    def test_one_bad_fault_schedules_nothing(self, tier, monkeypatch):
        sim, engine, audits = tier(monkeypatch)
        agenda = list(sim._heap)
        plan = FaultPlan(_SHARED_PLAN.faults + (Fault(
            kind="backend_crash", at=40.0, target="service:99/backend:0"),))
        with pytest.raises(FaultTargetError, match="service:99"):
            engine.arm(plan)
        assert sim._heap == agenda
        sim.run(until=60.0)
        assert engine.timeline == []
        assert audits == []

    def test_past_fault_rejected(self, tier, monkeypatch):
        sim, engine, _ = tier(monkeypatch)
        sim.run(until=10.0)
        with pytest.raises(FaultPlanError, match="in the past"):
            engine.arm(_SHARED_PLAN)

    def test_timeline_entries_and_one_audit_per_step(self, tier,
                                                     monkeypatch):
        sim, engine, audits = tier(monkeypatch)
        engine.arm(_SHARED_PLAN)
        sim.run(until=60.0)
        assert [(e["t"], e["action"], e["kind"]) for e in engine.timeline] \
            == [(5.0, "inject", "backend_crash"),
                (7.0, "inject", "replica_crash"),
                (12.0, "recover", "replica_crash"),
                (15.0, "recover", "backend_crash"),
                (20.0, "inject", "az_crash"),
                (25.0, "recover", "az_crash"),
                (30.0, "inject", "query_of_death"),
                (35.0, "recover", "query_of_death")]
        for entry in engine.timeline:
            assert set(entry) == {"t", "action", "kind", "target", "detail"}
        assert audits == [f"{e['action']}:{e['kind']}:{e['target']}"
                          for e in engine.timeline]


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

    def test_shrink_and_extend_keep_sessions(self):
        """Moving a service between backends re-spreads its sessions
        with its load: none are lost, and the new backend carries its
        share."""
        _sim, gateway, _ = make_chaos_gateway()
        sid = sorted(gateway.service_backends)[0]
        auditor = InvariantAuditor(gateway=gateway)
        leaving = gateway.service_backends[sid][-1]
        gateway.shrink_service(sid, leaving)
        auditor.check("shrink")
        carriers = gateway.service_backends[sid]
        assert len(carriers) == 3
        assert sum(b.service_sessions(sid) for b in carriers) == 12_000
        gateway.extend_service(sid, leaving)
        auditor.check("extend")
        assert leaving.service_sessions(sid) == 12_000 // 4
        assert auditor.violations == []

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
