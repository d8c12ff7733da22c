"""§4.2 / Fig 8 chaos exhibit: the failure-recovery hierarchy under a
deterministic fault plan.

``fig8_recovery`` arms a :class:`~repro.faults.FaultPlan` over the
production gateway and samples per-service availability every virtual
second while the :class:`~repro.faults.InvariantAuditor` re-checks
conservation after each injection and recovery. The default plan walks
the paper's hierarchy bottom-up:

1. a replica crash — the victim service stays up on the backend's
   surviving replica;
2. a whole-backend crash — the victim stays up on its other
   shuffle-shard backends;
3. an AZ crash — every service stays up via cross-AZ DNS;
4. a query-of-death cascade — only the poisoned service goes dark,
   shuffle-sharding contains the blast radius;
5. a cert-rotation failure — in-flight certs stop verifying until the
   CA reissues.

The plan compiles onto the simulator agenda, so the whole exhibit is a
pure function of (plan, seed): output is byte-identical at any
``--jobs`` level (``tests/test_equivalence.py`` checks exactly that).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..crypto import CertificateAuthority
from ..faults import Fault, FaultEngine, FaultPlan
from ..k8s import Cluster
from ..mesh import IstioControlPlane
from ..netsim import Topology
from ..runtime.sweep import sweep_map
from ..simcore import Simulator
from .base import ExperimentResult, Series, Table
from .cloud_ops import build_production_gateway

__all__ = ["fig8_plan", "fig8_recovery"]

#: Virtual seconds of slack sampled after the last recovery.
_TAIL_S = 10.0

#: The sampled SPIFFE identity for the cert-rotation fault.
_SPIFFE_ID = "spiffe://tenant1/svc1"


def fig8_plan() -> FaultPlan:
    """The default Fig 8 schedule, one fault class per window.

    Targets are symbolic (``service:i/backend:j/replica:k``), so the
    plan names the same *roles* under every seed even though
    shuffle-sharding assigns different concrete backends.
    """
    return FaultPlan.of(
        Fault(kind="replica_crash", at=10.0,
              target="service:0/backend:0/replica:0", duration_s=15.0),
        Fault(kind="backend_crash", at=40.0,
              target="service:1/backend:0", duration_s=20.0),
        Fault(kind="az_crash", at=80.0, target="az1", duration_s=30.0),
        Fault(kind="query_of_death", at=130.0, target="service:2",
              duration_s=20.0),
        Fault(kind="cert_rotation_failure", at=170.0, duration_s=15.0),
    )


def _fig8_seed_run(spec: Tuple[int, str]) -> Dict[str, object]:
    """One chaos run at one seed → plain picklable samples.

    The plan travels as its canonical JSON string, so pooled sweep
    workers see exactly the plan the parent built.
    """
    seed, plan_json = spec
    plan = FaultPlan.from_json(json.loads(plan_json))
    sim = Simulator(seed)
    gateway, services = build_production_gateway(
        sim, backends_per_az=6, services=6)
    for service in services:
        gateway.set_service_sessions(service.service_id, 12_000)
        gateway.set_service_load(service.service_id, 20_000.0)
    ca = CertificateAuthority("fig8-ca")
    cert = ca.issue(_SPIFFE_ID, "tenant1", not_after=1e9)
    topo = Topology.single_az_testbed(worker_nodes=2)
    cluster = Cluster("fig8", topo.all_nodes())
    cluster.create_deployment("svc0", replicas=4, labels={"app": "svc0"})
    cluster.create_service("svc0", selector={"app": "svc0"})
    controlplane = IstioControlPlane(sim, cluster)
    engine = FaultEngine(sim, gateway=gateway, controlplane=controlplane,
                         ca=ca)
    engine.arm(plan)

    service_ids = sorted(gateway.service_backends)
    horizon = int(plan.horizon() + _TAIL_S)
    availability: List[float] = []
    up_bits: Dict[int, List[int]] = {sid: [] for sid in service_ids}
    cert_ok: List[int] = []

    def sample():
        for _second in range(horizon + 1):
            up_count = 0
            for sid in service_ids:
                up = 0 if gateway.service_outage(sid) else 1
                up_bits[sid].append(up)
                up_count += up
            availability.append(up_count / len(service_ids))
            current = ca.issued_for(_SPIFFE_ID) or cert
            cert_ok.append(1 if ca.verify(current, now=sim.now) else 0)
            yield sim.timeout(1.0)

    sim.process(sample(), name="sampler")
    sim.run(until=horizon + 1.5)

    auditor = engine.auditor
    return {
        "availability": availability,
        "up_bits": up_bits,
        "cert_ok": cert_ok,
        "timeline": list(engine.timeline),
        "checks": auditor.checks_run,
        "violations": len(auditor.violations),
        "disrupted": dict(engine.disrupted),
        "victims": {
            "replica": service_ids[0],
            "backend": service_ids[1],
            "qod": service_ids[2],
        },
    }


def _window(run: Dict[str, object], plan: FaultPlan, kind: str,
            sid: Optional[int] = None) -> List[int]:
    """Up-bits strictly inside ``kind``'s fault window.

    ``sid=None`` pools every service's bits (for the AZ window, where
    the claim is fleet-wide).
    """
    fault = next(f for f in plan.faults if f.kind == kind)
    lo, hi = fault.at, fault.at + (fault.duration_s or 0.0)
    up_bits: Dict[int, List[int]] = run["up_bits"]
    targets = [sid] if sid is not None else sorted(up_bits)
    return [bits[second]
            for target in targets
            for bits in [up_bits[target]]
            for second in range(len(bits))
            if lo < second < hi]


def fig8_recovery(seed: int = 53) -> ExperimentResult:
    """Availability through the recovery hierarchy under
    :func:`fig8_plan`, over seeds ``seed``, ``seed + 1`` and ``seed + 2``.
    """
    result = ExperimentResult(
        "fig8_recovery", "Recovery hierarchy under a deterministic "
                         "fault plan")
    plan = fig8_plan()
    plan_json = plan.canonical()
    seed_grid = [seed, seed + 1, seed + 2]
    runs = sweep_map(_fig8_seed_run,
                     [(one_seed, plan_json) for one_seed in seed_grid])

    result.faults = [entry for run in runs for entry in run["timeline"]]
    first = runs[0]
    availability = Series("availability_fraction", x_label="seconds",
                          y_label="services up / total")
    for second, fraction in enumerate(first["availability"]):
        availability.add(second, fraction)
    cert_series = Series("cert_verifies", x_label="seconds",
                         y_label="0/1")
    for second, ok in enumerate(first["cert_ok"]):
        cert_series.add(second, ok)
    result.series.extend([availability, cert_series])

    timeline_table = Table(f"Fault timeline (seed {seed_grid[0]})",
                           ["t", "action", "kind", "target", "detail"])
    for entry in first["timeline"]:
        timeline_table.add_row(entry["t"], entry["action"], entry["kind"],
                               entry["target"], entry["detail"])
    result.tables.append(timeline_table)

    result.findings["seeds_run"] = float(len(runs))
    result.findings["faults_per_run"] = float(len(first["timeline"]))
    result.findings["invariant_checks"] = float(
        sum(run["checks"] for run in runs))
    result.findings["invariant_violations"] = float(
        sum(run["violations"] for run in runs))
    result.findings["min_availability"] = min(
        min(run["availability"]) for run in runs)
    for scope in ("replica", "backend", "az"):
        result.findings[f"sessions_disrupted_{scope}"] = float(
            sum(run["disrupted"].get(scope, 0) for run in runs))

    # Hierarchy claims, each the min over every seed (a single
    # counter-example run falsifies the claim).
    result.findings["replica_fault_victim_up"] = float(min(
        min(_window(run, plan, "replica_crash",
                    run["victims"]["replica"])) for run in runs))
    result.findings["backend_fault_victim_up"] = float(min(
        min(_window(run, plan, "backend_crash",
                    run["victims"]["backend"])) for run in runs))
    result.findings["az_fault_all_up"] = float(min(
        min(_window(run, plan, "az_crash")) for run in runs))
    result.findings["qod_victim_up"] = float(max(
        max(_window(run, plan, "query_of_death",
                    run["victims"]["qod"])) for run in runs))
    result.findings["qod_peers_up"] = float(min(
        min(bit for sid, bits in run["up_bits"].items()
            if sid != run["victims"]["qod"]
            for bit in _window(run, plan, "query_of_death", sid))
        for run in runs))
    result.findings["cert_rejected_during_fault"] = float(min(
        1 - min(_window_series(run, plan, "cert_rotation_failure"))
        for run in runs))
    result.findings["cert_ok_after_recovery"] = float(min(
        run["cert_ok"][-1] for run in runs))
    result.notes.append(
        "paper Fig 8: replica failure disrupts only its own sessions; "
        "backend failure survives via shuffle-shard siblings; AZ "
        "failure survives via cross-AZ DNS; a query-of-death takes "
        "down only the poisoned service")
    result.notes.append(
        f"invariant auditor: {int(result.findings['invariant_checks'])} "
        f"checks, {int(result.findings['invariant_violations'])} "
        f"violations across {len(runs)} seeds")
    return result


def _window_series(run: Dict[str, object], plan: FaultPlan,
                   kind: str) -> List[int]:
    """``cert_ok`` samples strictly inside ``kind``'s fault window."""
    fault = next(f for f in plan.faults if f.kind == kind)
    lo, hi = fault.at, fault.at + (fault.duration_s or 0.0)
    samples: List[int] = run["cert_ok"]
    return [value for second, value in enumerate(samples) if lo < second < hi]
