"""Tests for repro.obs.trace: causal spans, sampling, analytics,
exporters, and the no-perturbation determinism guarantee."""

import json

import pytest

from repro.experiments.testbed import MESH_CLASSES, build_testbed
from repro.mesh import HttpRequest
from repro.obs import (
    Span,
    Trace,
    TraceCollector,
    Tracer,
    chrome_trace,
    critical_path,
    fault_detection_latency,
    get_tracer,
    layer_attribution,
    prometheus_text,
    traces_json,
    use_tracer,
)
from repro.obs.export import _escape_label
from repro.obs.telemetry import Telemetry
from repro.runtime import RunSpec, run_exhibit


def _span(trace_id=1, source="a", layer="l4", start=0.0, end=1.0,
          span_id=0, parent_id=0, name="", **kw):
    return Span(trace_id=trace_id, source=source, layer=layer,
                start_s=start, end_s=end, span_id=span_id,
                parent_id=parent_id, name=name, **kw)


def _fault(t, action, kind, target, detail=""):
    """A fault-timeline entry, shaped as a fault engine's ``_note``."""
    return {"t": t, "action": action, "kind": kind, "target": target,
            "detail": detail}


class TestEmptyTraceRegression:
    """An empty span list must never crash trace analytics."""

    def test_empty_trace_defaults(self):
        trace = Trace(trace_id=7)
        assert trace.start_s == 0.0
        assert trace.end_s == 0.0
        assert trace.duration_s == 0.0
        assert trace.layers() == []
        assert trace.coverage == "none"
        assert trace.root() is None

    def test_empty_trace_critical_path_gap(self):
        # Regression: this crashed (min/max over an empty sequence)
        # before spans and causality were unified here.
        assert Trace(trace_id=7).critical_path_gap_s() == 0.0

    def test_empty_trace_analytics(self):
        trace = Trace(trace_id=7)
        assert critical_path(trace) == []
        assert layer_attribution(trace) == {}


class TestCausalModel:
    def test_root_children_and_depth(self):
        collector = TraceCollector()
        tracer = Tracer(collector=collector)
        handle = tracer.start("request", source="client", start_s=0.0)
        l7 = handle.add("gateway-l7", "l7", 0.2, 0.8)
        handle.add("replica-exec", "l7", 0.3, 0.7, parent_id=l7)
        handle.finish(1.0, status=200)
        trace = collector.trace(handle.trace_id)
        root = trace.root()
        assert root.name == "request" and root.annotation("status") == "200"
        children = trace.children(root.span_id)
        assert [span.name for span in children] == ["gateway-l7"]
        replica = next(s for s in trace.spans if s.name == "replica-exec")
        assert trace.depth(replica) == 2

    def test_add_tree_defers_nested_specs(self):
        collector = TraceCollector()
        tracer = Tracer(collector=collector)
        handle = tracer.start("request", start_s=1.0)
        handle.add_tree({
            "name": "tls-handshake", "layer": "tls",
            "start_s": 0.0, "end_s": 0.9,
            "annotations": {"peer": "gateway"},
            "children": [
                {"name": "tls-asym", "layer": "tls",
                 "start_s": 0.2, "end_s": 0.7},
            ],
        })
        handle.finish(2.0)
        trace = collector.trace(handle.trace_id)
        handshake = next(s for s in trace.spans if s.name == "tls-handshake")
        asym = next(s for s in trace.spans if s.name == "tls-asym")
        assert handshake.annotation("peer") == "gateway"
        assert asym.parent_id == handshake.span_id
        assert handshake.parent_id == trace.root().span_id

    def test_finish_is_idempotent(self):
        collector = TraceCollector()
        handle = Tracer(collector=collector).start("request", start_s=0.0)
        handle.finish(1.0, status=200)
        handle.finish(9.0, status=503)
        trace = collector.trace(handle.trace_id)
        assert len(trace.spans) == 1
        assert trace.root().annotation("status") == "200"


class TestCollectorMigration:
    """The aggregates of the old flat-span collector must survive."""

    def test_eviction_keeps_newest_traces(self):
        collector = TraceCollector(max_traces=2)
        for trace_id in (1, 2, 3):
            collector.record(_span(trace_id=trace_id))
        assert collector.traces_evicted == 1
        assert [trace.trace_id for trace in collector.traces()] == [2, 3]

    @pytest.mark.parametrize("max_traces", [0, -1])
    def test_non_positive_max_traces_rejected_by_name(self, max_traces):
        with pytest.raises(ValueError, match="max_traces"):
            TraceCollector(max_traces=max_traces)

    def test_unbounded_keeps_every_trace(self):
        collector = TraceCollector(max_traces=None)
        for trace_id in (1, 2, 3):
            collector.record(_span(trace_id=trace_id))
        assert len(collector.traces()) == 3

    def test_coverage_report_folds_evicted(self):
        collector = TraceCollector(max_traces=1)
        collector.record(_span(trace_id=1, layer="l4"))
        collector.record(_span(trace_id=1, layer="l7"))
        collector.record(_span(trace_id=2, layer="l7"))  # evicts trace 1
        report = collector.coverage_report()
        assert report["full"] == 1      # evicted at full coverage
        assert report["partial"] == 1   # the live gateway-only trace


class TestAnalytics:
    def _nested_trace(self):
        collector = TraceCollector()
        handle = Tracer(collector=collector).start("request", start_s=0.0)
        l7 = handle.add("gateway-l7", "l7", 2.0, 8.0)
        handle.add("replica-exec", "l7", 3.0, 6.0, parent_id=l7,
                   source="replica/r1")
        handle.add("onnode-l4", "l4", 0.0, 2.0)
        handle.finish(10.0)
        return collector.trace(handle.trace_id)

    def test_critical_path_prefers_deepest_span(self):
        segments = critical_path(self._nested_trace())
        at_4s = next(seg for seg in segments if seg[0] <= 4.0 < seg[1])
        assert at_4s[3] == "replica/r1"  # not the enclosing gateway span

    def test_layer_attribution_is_exclusive_and_complete(self):
        trace = self._nested_trace()
        attribution = layer_attribution(trace)
        # l4 [0,2) + l7 [2,8) + root residue [8,10) = full 10s window.
        assert attribution["l4"] == pytest.approx(2.0)
        assert attribution["l7"] == pytest.approx(6.0)
        assert attribution["request"] == pytest.approx(2.0)
        assert sum(attribution.values()) == pytest.approx(trace.duration_s)

    def test_fault_detection_latency(self):
        collector = TraceCollector()
        tracer = Tracer(collector=collector)
        ok = tracer.start("request", start_s=0.0)
        ok.finish(1.0, status=200)
        bad = tracer.start("request", start_s=4.5)
        bad.finish(5.5, status=503)
        faults = [_fault(4.0, "inject", "backend_crash", "b0"),
                  _fault(6.0, "recover", "backend_crash", "b0"),
                  _fault(90.0, "inject", "az_crash", "az9")]
        report = fault_detection_latency(collector.traces(), faults)
        assert len(report) == 2  # injections only
        assert report[0]["latency_s"] == pytest.approx(1.5)
        assert report[0]["trace_id"] == bad.trace_id
        assert report[1]["latency_s"] is None  # never detected


class TestSamplingDeterminism:
    def test_sampler_is_seed_deterministic(self):
        def sampled_ids(seed):
            tracer = Tracer(sample_rate=0.5, seed=seed)
            ids = []
            for _ in range(64):
                handle = tracer.start("request")
                if handle is not None:
                    ids.append(handle.trace_id)
            return ids

        assert sampled_ids(3) == sampled_ids(3)
        assert sampled_ids(3) != sampled_ids(4)

    def test_trace_ids_consumed_even_when_sampled_out(self):
        tracer = Tracer(sample_rate=0.0, seed=1)
        for _ in range(5):
            assert tracer.start("request") is None
        assert tracer.traces_started == 5
        assert tracer.traces_sampled == 0
        assert tracer.collector.new_trace_id() == 6

    @pytest.mark.parametrize("mesh_name", sorted(MESH_CLASSES))
    def test_tracing_does_not_perturb_simulation(self, mesh_name):
        """The central determinism rule: toggling tracing must not
        change model behavior (the sampler never touches sim.rng)."""
        def run_latencies(traced):
            run = build_testbed(mesh_name, seed=19)
            latencies = []

            def scenario():
                connection = yield run.sim.process(
                    run.mesh.open_connection(run.client_pod, "svc1"))
                for _ in range(10):
                    response = yield run.sim.process(
                        run.mesh.request(connection, HttpRequest()))
                    latencies.append(response.latency_s)

            run.sim.process(scenario())
            if traced:
                with use_tracer(Tracer(sample_rate=0.5, seed=19)):
                    run.sim.run()
            else:
                run.sim.run()
            return latencies

        assert run_latencies(traced=False) == run_latencies(traced=True)


class TestMeshPaths:
    def test_ambient_traces_its_path(self):
        """Ambient adopts its HBONE handshake spans and records both
        ztunnel L4 passes and the waypoint L7 pass."""
        run = build_testbed("ambient", seed=19)

        def scenario():
            connection = yield run.sim.process(
                run.mesh.open_connection(run.client_pod, "svc1"))
            yield run.sim.process(
                run.mesh.request(connection, HttpRequest()))

        run.sim.process(scenario())
        with use_tracer(Tracer()) as tracer:
            run.sim.run()
        (trace,) = tracer.collector.traces()
        root = trace.root()
        assert root.annotation("status") == "200"
        tls = [span for span in trace.spans if span.layer == "tls"]
        assert tls and root.start_s == min(span.start_s for span in tls)
        assert [span.name for span in trace.children(root.span_id)
                if span.layer != "tls"] == ["ztunnel-l4", "waypoint-l7",
                                            "ztunnel-l4"]
        assert trace.coverage == "full"


class TestAmbientTracer:
    def test_disabled_by_default(self):
        assert get_tracer() is None

    def test_use_tracer_scopes_and_restores(self):
        with use_tracer() as tracer:
            assert get_tracer() is tracer
        assert get_tracer() is None


class TestPrometheusEscaping:
    """Label values with backslashes, quotes, and newlines must escape
    per the text exposition format (backslash first, then quote, \\n)."""

    def test_escape_label_order(self):
        assert _escape_label("a\\b") == "a\\\\b"
        assert _escape_label('say "hi"') == 'say \\"hi\\"'
        assert _escape_label("line1\nline2") == "line1\\nline2"
        # Backslash escaping must not double-escape the sequences the
        # later replacements introduce.
        assert _escape_label('\\"\n') == '\\\\\\"\\n'

    def test_prometheus_text_escapes_label_values(self):
        telemetry = Telemetry(enabled=True)
        telemetry.inc("requests_total", service='svc "a"\\prod\nx')
        text = prometheus_text(telemetry)
        assert 'service="svc \\"a\\"\\\\prod\\nx"' in text
        assert "\n\n" not in text  # the raw newline never leaks


class TestExporters:
    #: One fault-timeline entry, as a fault engine records it.
    FAULTS = [_fault(0.25, "inject", "replica_crash", "r1",
                     "r1 down")]

    def _collector(self):
        collector = TraceCollector()
        tracer = Tracer(collector=collector)
        handle = tracer.start("request", service="svc1", start_s=0.0)
        handle.add("onnode-l4", "l4", 0.0, 0.5, pod="p1", bytes_out=64,
                   bytes_in=32)
        handle.finish(1.0, status=200)
        return collector

    def test_chrome_trace_carries_causality_and_faults(self):
        collector = self._collector()
        payload = chrome_trace(collector.traces(), faults=self.FAULTS)
        blob = json.dumps(payload)  # must be valid JSON
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["args"]["span_id"] for e in complete)
        root = next(e for e in complete if e["name"] == "request")
        assert root["args"]["a.status"] == "200"
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and instants[0]["name"] == "inject:replica_crash"
        assert instants[0]["args"] == {"target": "r1",
                                       "detail": "r1 down"}
        assert "replica_crash" in blob

    def test_traces_json_shape(self):
        collector = self._collector()
        payload = traces_json(collector.traces(), self.FAULTS)
        assert len(payload["traces"]) == 1
        trace = payload["traces"][0]
        assert trace["coverage"] == "none"  # l4 only, no l7
        assert {span["name"] for span in trace["spans"]} == \
            {"request", "onnode-l4"}
        assert payload["fault_marks"] == self.FAULTS

    def test_trace_breakdown_artifacts(self, tmp_path):
        """The exhibit's ``--report`` artifacts: causal spans and fault
        instants in the Chrome trace, an end-to-end (``full``) trace and
        fault marks in ``traces.json``."""
        run = run_exhibit(RunSpec("trace_breakdown", use_cache=False,
                                  report_dir=str(tmp_path)))
        with open(run.artifact_paths["trace"]) as handle:
            events = json.load(handle)["traceEvents"]
        assert [e for e in events
                if e["ph"] == "X" and "span_id" in e.get("args", {})]
        assert [e for e in events if e["ph"] == "i"]
        with open(run.artifact_paths["traces"]) as handle:
            dump = json.load(handle)
        assert "full" in {trace["coverage"] for trace in dump["traces"]}
        assert dump["fault_marks"]
