"""Trace-driven latency and RCA exhibit (§4.1.1 / Appendix A).

``trace_breakdown`` drives the §5.1 testbed under a fully-sampled
:class:`~repro.obs.trace.Tracer` for three architectures and decomposes
where each request's latency goes, straight from the causal traces:

* **sidecar (Istio)** — both sidecar L7 passes dominate; TLS handshake
  spans hang off the connection's first trace;
* **Canal** — split observability reassembled end to end: node L4
  segments + gateway L7 (with the replica execution nested inside) +
  app time + offloaded TLS sub-spans;
* **proxyless Canal** — the Appendix B trade-off made visible: only the
  gateway's L7 view exists, every trace is ``coverage == "partial"``.

The chaos variant overlays a Fig 8-style fault window on *trace-derived*
availability: a backend crash is annotated onto the trace stream by the
fault engine, per-second availability is computed from root-span status
annotations alone, and :func:`~repro.obs.trace.fault_detection_latency`
reports how long until the first degraded trace surfaced the fault —
the RCA loop a sidecar-free mesh must still close.

Every worker is a whole simulation, so the exhibit is byte-identical at
any ``--jobs`` level; the workers' spans are re-recorded (with offset
trace ids) into a collector registered for the ``--report`` exporters,
so the Chrome trace artifact shows all three architectures side by side
with the fault markers.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from ..faults import Fault, FaultEngine, FaultPlan
from ..k8s import Cluster
from ..mesh import HttpRequest
from ..netsim import Topology
from ..obs.trace import (
    Trace,
    TraceCollector,
    Tracer,
    critical_path,
    fault_detection_latency,
    layer_attribution,
    register_collector,
    set_tracer,
    span_from_dict,
    span_to_dict,
    take_collectors,
)
from ..runtime.sweep import sweep_map
from ..simcore import Simulator
from .base import ExperimentResult, Series, Table
from .testbed import (
    PODS_PER_SERVICE,
    SERVICES,
    TestbedRun,
    WORKER_NODES,
    build_testbed,
)

__all__ = ["trace_breakdown", "trace_breakdown_chaos"]

#: Architectures compared in the waterfall, in display order.
_MESHES = ("istio", "canal", "canal-proxyless")

#: Layers in waterfall display order (request = uninstrumented root
#: residue, i.e. network propagation and queueing between spans).
_LAYERS = ("tls", "l4", "l7", "app", "request", "unattributed")


def _build(mesh_name: str, seed: int) -> TestbedRun:
    """The §5.1 testbed, extended with the proxyless variant."""
    if mesh_name != "canal-proxyless":
        return build_testbed(mesh_name, seed=seed)
    from ..core.proxyless import ProxylessCanalMesh
    sim = Simulator(seed)
    topology = Topology.single_az_testbed(worker_nodes=WORKER_NODES)
    cluster = Cluster("testbed", topology.all_nodes())
    mesh = ProxylessCanalMesh(sim)
    mesh.attach(cluster)
    for index in range(SERVICES):
        name = f"svc{index}"
        cluster.create_deployment(name, replicas=PODS_PER_SERVICE,
                                  labels={"app": name})
        cluster.create_service(name, selector={"app": name})
    return TestbedRun(sim, cluster, mesh)


def _scoped_tracer(seed: int) -> Tuple[Tracer, object]:
    """An ambient full-sampling tracer whose collector is *not* left in
    the report-drain registry (the parent re-records the spans it gets
    back, so a leaked worker collector would double-count under serial
    sweeps)."""
    tracer = Tracer(sample_rate=1.0, seed=seed)
    previous = set_tracer(tracer)
    return tracer, previous


def _unscope_tracer(tracer: Tracer, previous) -> None:
    set_tracer(previous)
    for collector in take_collectors():
        if collector is not tracer.collector:
            register_collector(collector)


def _packed_traces(collector: TraceCollector) -> List[List[dict]]:
    return [[span_to_dict(span) for span in trace.spans]
            for trace in collector.traces()]


def _unpack_traces(packed: List[List[dict]], id_offset: int = 0
                   ) -> List[Trace]:
    traces = []
    for spans in packed:
        if not spans:
            continue
        spans = [span_from_dict(dict(data, trace_id=(int(data["trace_id"])
                                                     + id_offset)))
                 for data in spans]
        traces.append(Trace(trace_id=spans[0].trace_id,
                            spans=sorted(spans, key=lambda s: (s.start_s,
                                                               s.span_id))))
    return traces


def _waterfall_run(spec: Tuple[str, int, int]) -> Dict[str, object]:
    """One traced testbed run → plain picklable span dicts."""
    mesh_name, seed, requests = spec
    tracer, previous = _scoped_tracer(seed)
    latencies: List[float] = []
    try:
        run = _build(mesh_name, seed)

        def scenario():
            connection = yield from run.mesh.open_connection(
                run.client_pod, "svc1")
            for _ in range(requests):
                response = yield from run.mesh.request(
                    connection, HttpRequest())
                latencies.append(response.latency_s)
                yield run.sim.timeout(0.01)

        run.sim.process(scenario(), name="trace-client")
        run.sim.run()
    finally:
        _unscope_tracer(tracer, previous)
    return {
        "mesh": mesh_name,
        "latencies": latencies,
        "traces": _packed_traces(tracer.collector),
        "traces_sampled": tracer.traces_sampled,
    }


#: Chaos schedule: one backend crash against the driven service (svc1
#: is service index 1), injected mid-run and healed before the end.
_CHAOS_INJECT_AT = 8.0
_CHAOS_DURATION_S = 6.0
_CHAOS_HORIZON_S = 20


def _chaos_plan() -> FaultPlan:
    return FaultPlan.of(
        Fault(kind="backend_crash", at=_CHAOS_INJECT_AT,
              target="service:1/backend:0",
              duration_s=_CHAOS_DURATION_S))


def _chaos_run(spec: Tuple[int, str]) -> Dict[str, object]:
    """Canal under a fault plan, one request per virtual second."""
    seed, plan_json = spec
    plan = FaultPlan.from_json(json.loads(plan_json))
    tracer, previous = _scoped_tracer(seed)
    statuses: List[Tuple[float, int]] = []
    try:
        run = build_testbed("canal", seed=seed)
        engine = FaultEngine(run.sim, gateway=run.mesh.gateway)
        engine.arm(plan)

        def client():
            connection = yield from run.mesh.open_connection(
                run.client_pod, "svc1")
            for _ in range(_CHAOS_HORIZON_S):
                response = yield from run.mesh.request(
                    connection, HttpRequest())
                statuses.append((run.sim.now, response.status))
                yield run.sim.timeout(1.0)

        run.sim.process(client(), name="chaos-client")
        run.sim.run()
    finally:
        _unscope_tracer(tracer, previous)
    return {
        "statuses": statuses,
        "traces": _packed_traces(tracer.collector),
        "fault_marks": list(tracer.collector.fault_marks),
        "timeline": list(engine.timeline),
    }


def _mean_attribution(traces: List[Trace]) -> Dict[str, float]:
    """Per-layer latency attribution averaged over the traces."""
    totals: Dict[str, float] = {}
    for trace in traces:
        for layer, seconds in layer_attribution(trace).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return {layer: seconds / len(traces)
            for layer, seconds in totals.items()} if traces else {}


def _is_e2e(trace: Trace) -> bool:
    """The acceptance predicate: gateway L7 + node L4 + app + TLS
    layers present under a causal root, with the replica execution
    correctly parented inside the gateway L7 span."""
    if not set(trace.layers()) >= {"l4", "l7", "app", "tls"}:
        return False
    root = trace.root()
    if root is None:
        return False
    replica = next((span for span in trace.spans
                    if span.name == "replica-exec"), None)
    if replica is None:
        return False
    parent = trace.span(replica.parent_id)
    return parent is not None and parent.name == "gateway-l7"


def trace_breakdown(seed: int = 11, requests: int = 24) -> ExperimentResult:
    """Per-layer latency waterfall for sidecar vs Canal vs proxyless."""
    result = ExperimentResult(
        "trace_breakdown",
        "Causal-trace latency waterfall: sidecar vs Canal vs proxyless")
    runs = sweep_map(_waterfall_run,
                     [(mesh, seed, requests) for mesh in _MESHES])

    # Re-record every worker's spans (offset ids, so the three meshes
    # coexist) into a collector the --report exporters drain.
    exhibit_collector = TraceCollector()
    register_collector(exhibit_collector)
    id_offset = 0
    traces_by_mesh: Dict[str, List[Trace]] = {}
    for run in runs:
        traces = _unpack_traces(run["traces"], id_offset=id_offset)
        traces_by_mesh[run["mesh"]] = traces
        for trace in traces:
            for span in trace.spans:
                exhibit_collector.record(span)
        id_offset += len(run["traces"]) + 1

    waterfall = Table("Per-layer latency attribution (mean ms/request)",
                      ["mesh"] + [f"{layer}_ms" for layer in _LAYERS]
                      + ["trace_ms", "coverage"])
    for run in runs:
        mesh = run["mesh"]
        traces = traces_by_mesh[mesh]
        attribution = _mean_attribution(traces)
        mean_duration = (sum(t.duration_s for t in traces) / len(traces)
                         if traces else 0.0)
        coverages = {t.coverage for t in traces}
        waterfall.add_row(
            mesh, *[round(attribution.get(layer, 0.0) * 1e3, 4)
                    for layer in _LAYERS],
            round(mean_duration * 1e3, 4),
            "/".join(sorted(coverages)))
    result.tables.append(waterfall)

    canal_traces = traces_by_mesh.get("canal", [])
    if canal_traces:
        path = Table("Critical path of the first Canal trace",
                     ["start_ms", "end_ms", "layer", "source"])
        for start, end, layer, source in critical_path(canal_traces[0]):
            path.add_row(round(start * 1e3, 4), round(end * 1e3, 4),
                         layer, source)
        result.tables.append(path)

    for run in runs:
        mesh = run["mesh"]
        latencies = run["latencies"]
        result.findings[f"{mesh}_mean_latency_ms"] = (
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0)
        result.findings[f"{mesh}_traces"] = float(len(traces_by_mesh[mesh]))

    result.findings["canal_e2e_traces"] = float(
        sum(1 for trace in canal_traces if _is_e2e(trace)))
    result.findings["proxyless_partial_traces"] = float(
        sum(1 for trace in traces_by_mesh.get("canal-proxyless", [])
            if trace.coverage == "partial"))
    result.findings["proxyless_nonpartial_traces"] = float(
        sum(1 for trace in traces_by_mesh.get("canal-proxyless", [])
            if trace.coverage != "partial"))
    result.findings["canal_mean_gap_ms"] = (
        sum(t.critical_path_gap_s() for t in canal_traces)
        / len(canal_traces) * 1e3 if canal_traces else 0.0)
    result.notes.append(
        "layers attribute exclusive critical-path time: the gateway L7 "
        "span only claims what its nested replica-exec span does not")
    result.notes.append(
        "proxyless traces are gateway-only (coverage=partial): the "
        "Appendix B observability trade-off")

    chaos = trace_breakdown_chaos(seed=seed, collector=exhibit_collector,
                                  id_offset=id_offset)
    result.tables.extend(chaos.tables)
    result.series.extend(chaos.series)
    result.findings.update(chaos.findings)
    result.notes.extend(chaos.notes)
    return result


def trace_breakdown_chaos(seed: int = 11,
                          collector: TraceCollector = None,
                          id_offset: int = 0) -> ExperimentResult:
    """Fault timeline overlaid on trace-derived availability.

    ``collector``, when given, receives the chaos run's spans and fault
    marks (with trace ids shifted by ``id_offset``) for the ``--report``
    exporters.
    """
    result = ExperimentResult(
        "trace_breakdown_chaos",
        "Trace-derived availability and fault-detection latency")
    plan = _chaos_plan()
    run = sweep_map(_chaos_run, [(seed, plan.canonical())])[0]
    traces = _unpack_traces(run["traces"], id_offset=id_offset)
    marks = run["fault_marks"]
    if collector is not None:
        for trace in traces:
            for span in trace.spans:
                collector.record(span)
        for mark in marks:
            collector.mark_fault(mark["t"], mark["action"], mark["kind"],
                                 mark["target"], mark.get("detail", ""))

    # Per-second availability from root-span status annotations only —
    # no side channel back into the simulator's truth.
    per_second: Dict[int, List[int]] = {}
    for trace in traces:
        root = trace.root()
        if root is None:
            continue
        ok = 1 if root.annotation("status") in ("200", "ok") else 0
        per_second.setdefault(int(trace.end_s), []).append(ok)
    availability = Series("trace_availability", x_label="seconds",
                          y_label="ok traces / traces")
    horizon = max(per_second, default=0)
    for second in range(horizon + 1):
        bits = per_second.get(second)
        availability.add(second, sum(bits) / len(bits) if bits else 1.0)
    result.series.append(availability)

    fault_table = Table("Fault marks on the trace stream",
                        ["t", "action", "kind", "target"])
    for mark in marks:
        fault_table.add_row(mark["t"], mark["action"], mark["kind"],
                            mark["target"])
    result.tables.append(fault_table)

    detections = fault_detection_latency(traces, marks)
    detected = [entry for entry in detections
                if entry["latency_s"] is not None]
    result.findings["chaos_faults_injected"] = float(len(detections))
    result.findings["chaos_faults_detected"] = float(len(detected))
    if detected:
        result.findings["chaos_detection_latency_s"] = detected[0][
            "latency_s"]
    degraded = sum(1 for trace in traces
                   if trace.root() is not None
                   and trace.root().annotation("status")
                   not in ("200", "ok"))
    result.findings["chaos_degraded_traces"] = float(degraded)
    result.findings["chaos_min_availability"] = min(
        point[1] for point in availability.points) if \
        availability.points else 1.0
    result.notes.append(
        "availability is computed from trace root status annotations "
        "alone; the fault window must show as degraded traces between "
        f"t={_CHAOS_INJECT_AT:g}s and "
        f"t={_CHAOS_INJECT_AT + _CHAOS_DURATION_S:g}s")
    return result
