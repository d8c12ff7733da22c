"""Tests for the unified telemetry layer (repro.obs)."""

import json

import pytest

from repro.core import Span, TraceCollector
from repro.experiments.base import ExperimentResult, Series, Table
from repro.experiments.testbed import build_testbed
from repro.mesh import HttpRequest
from repro.obs import (
    SimProfiler,
    Telemetry,
    chrome_trace,
    disable_profiling,
    enable_profiling,
    get_telemetry,
    prometheus_text,
    run_report,
    take_profilers,
    use_telemetry,
    write_run_artifacts,
)
from repro.simcore import Simulator


class TestTelemetryRegistry:
    def test_counter_labels_are_distinct(self):
        telemetry = Telemetry()
        telemetry.inc("requests_total", mesh="canal", result="ok")
        telemetry.inc("requests_total", mesh="canal", result="ok")
        telemetry.inc("requests_total", mesh="canal", result="503")
        assert telemetry.value("requests_total",
                               mesh="canal", result="ok") == 2
        assert telemetry.value("requests_total",
                               mesh="canal", result="503") == 1
        assert telemetry.total("requests_total") == 3

    def test_label_order_is_irrelevant(self):
        telemetry = Telemetry()
        telemetry.inc("c", a="1", b="2")
        telemetry.inc("c", b="2", a="1")
        assert telemetry.value("c", a="1", b="2") == 2

    def test_counter_amount_and_negative_rejected(self):
        telemetry = Telemetry()
        telemetry.inc("bytes_total", amount=512, node="w1")
        assert telemetry.value("bytes_total", node="w1") == 512
        with pytest.raises(ValueError):
            telemetry.inc("bytes_total", amount=-1, node="w1")

    def test_gauge_set(self):
        telemetry = Telemetry()
        telemetry.set("water_level", 0.4, backend="b1")
        telemetry.set("water_level", 0.7, backend="b1")
        assert telemetry.value("water_level", backend="b1") == 0.7

    def test_histogram_bucketing(self):
        telemetry = Telemetry()
        for value in (0.5, 1.5, 2.5, 99.0):
            telemetry.observe("latency", value, buckets=(1.0, 2.0, 3.0))
        histogram = telemetry.get("latency")
        assert histogram.counts == [1, 1, 1, 1]
        assert histogram.cumulative_counts() == [1, 2, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(103.5)

    def test_histogram_boundary_goes_to_le_bucket(self):
        telemetry = Telemetry()
        telemetry.observe("h", 1.0, buckets=(1.0, 2.0))
        assert telemetry.get("h").counts == [1, 0, 0]

    def test_kind_conflict_raises(self):
        telemetry = Telemetry()
        telemetry.inc("thing")
        with pytest.raises(ValueError):
            telemetry.set("thing", 1.0)

    def test_disabled_is_a_noop(self):
        telemetry = Telemetry(enabled=False)
        telemetry.inc("requests_total")
        telemetry.set("gauge", 1.0)
        telemetry.observe("histogram", 1.0)
        assert len(telemetry) == 0
        assert telemetry.value("requests_total") == 0.0
        assert telemetry.snapshot() == {}

    def test_snapshot_shape(self):
        telemetry = Telemetry()
        telemetry.inc("requests_total", mesh="canal")
        telemetry.observe("latency", 0.5)
        snapshot = telemetry.snapshot()
        assert snapshot["requests_total"]["kind"] == "counter"
        sample = snapshot["requests_total"]["samples"][0]
        assert sample == {"labels": {"mesh": "canal"}, "value": 1.0}
        assert snapshot["latency"]["samples"][0]["count"] == 1

    def test_ambient_registry_swap(self):
        before = get_telemetry()
        with use_telemetry() as telemetry:
            assert get_telemetry() is telemetry
            get_telemetry().inc("x")
            assert telemetry.value("x") == 1
        assert get_telemetry() is before


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        telemetry = Telemetry()
        telemetry.inc("requests_total", mesh="canal", result="ok")
        telemetry.set("water_level", 0.25, backend="b1")
        text = prometheus_text(telemetry)
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{mesh="canal",result="ok"} 1' in text
        assert '# TYPE water_level gauge' in text
        assert 'water_level{backend="b1"} 0.25' in text

    def test_histogram_exposition(self):
        telemetry = Telemetry()
        telemetry.observe("lat", 0.5, buckets=(1.0, 2.0), mesh="canal")
        telemetry.observe("lat", 5.0, mesh="canal")
        text = prometheus_text(telemetry)
        assert 'lat_bucket{mesh="canal",le="1.0"} 1' in text
        assert 'lat_bucket{mesh="canal",le="+Inf"} 2' in text
        assert 'lat_sum{mesh="canal"} 5.5' in text
        assert 'lat_count{mesh="canal"} 2' in text

    def test_label_escaping(self):
        telemetry = Telemetry()
        telemetry.inc("c", path='say "hi"\\n')
        text = prometheus_text(telemetry)
        assert r'path="say \"hi\"\\n"' in text

    def test_unlabeled_metric_has_no_braces(self):
        telemetry = Telemetry()
        telemetry.inc("plain_total")
        assert "plain_total 1\n" in prometheus_text(telemetry)

    def test_empty_registry(self):
        assert prometheus_text(Telemetry()) == ""


class TestChromeTrace:
    def _traces(self):
        collector = TraceCollector()
        collector.record(Span(trace_id=1, source="onnode@w1", layer="l4",
                              start_s=0.0, end_s=0.001, pod="p1",
                              service="svc1", bytes_out=10, bytes_in=20))
        collector.record(Span(trace_id=1, source="gateway/r1", layer="l7",
                              start_s=0.001, end_s=0.002, service="svc1"))
        return collector.traces()

    def test_span_events_round_trip(self):
        trace = chrome_trace(traces=self._traces())
        data = json.loads(json.dumps(trace))
        events = data["traceEvents"]
        assert len(events) == 2
        first = events[0]
        assert first["ph"] == "X"
        assert first["ts"] == pytest.approx(0.0)
        assert first["dur"] == pytest.approx(1000.0)  # 1 ms in µs
        assert first["args"]["trace_id"] == 1
        # Distinct sources get distinct thread rows.
        assert events[0]["tid"] != events[1]["tid"]

    def test_profiler_events_included(self):
        profiler = SimProfiler(keep_timeline=True)
        profiler._add("process:req", 0.5, 0.001, 0.0)
        trace = chrome_trace(profilers=[profiler])
        events = json.loads(json.dumps(trace))["traceEvents"]
        names = {event["name"] for event in events}
        assert "process:req" in names


class TestSimProfiler:
    def _toy_run(self):
        enable_profiling(keep_timeline=True)
        try:
            sim = Simulator(seed=1)

            def worker():
                for _ in range(10):
                    yield sim.timeout(1.0)

            def ticker():
                for _ in range(5):
                    yield sim.timeout(4.0)

            sim.process(worker(), name="worker-1")
            sim.process(ticker(), name="ticker-1")
            sim.run()
            return sim
        finally:
            disable_profiling()
            take_profilers()

    def test_profiler_attached_and_attributes_sim_time(self):
        sim = self._toy_run()
        assert sim.profiler is not None
        records = sim.profiler.records
        # Trailing digits are normalized away.
        assert "process:worker" in records
        assert "process:ticker" in records
        total_sim = sim.profiler.sim_total_s()
        assert total_sim == pytest.approx(sim.now)
        assert sim.profiler.wall_total_s() >= 0.0
        assert sim.profiler.steps > 0
        assert sim.profiler.timeline  # keep_timeline=True

    def test_summary_sorted_by_wall(self):
        sim = self._toy_run()
        rows = sim.profiler.summary()
        walls = [row["wall_s"] for row in rows]
        assert walls == sorted(walls, reverse=True)
        assert sim.profiler.formatted()

    def test_no_profiler_by_default(self):
        assert Simulator().profiler is None

    def test_key_cap_folds_into_other(self):
        profiler = SimProfiler(max_keys=2)
        for index in range(5):
            profiler._add(f"key-a{index}x", 0.0, 0.0, None)
        assert set(profiler.records) <= {"key-a0x", "key-a1x", "(other)"}
        assert "(other)" in profiler.records


class TestMeshWiring:
    def _run_canal_request(self, telemetry):
        with use_telemetry(telemetry):
            run = build_testbed("canal")

            def scenario():
                connection = yield run.sim.process(
                    run.mesh.open_connection(run.client_pod, "svc1"))
                response = yield run.sim.process(
                    run.mesh.request(connection, HttpRequest()))
                return response

            process = run.sim.process(scenario())
            run.sim.run()
            assert process.value.ok

    def test_canal_request_emits_across_layers(self):
        telemetry = Telemetry(enabled=True)
        self._run_canal_request(telemetry)
        assert telemetry.value("mesh_requests_total", mesh="canal",
                               result="ok", service="svc1") == 1
        # On-node proxies, gateway, and crypto all emitted.
        assert telemetry.total("onnode_messages_total") == 2
        assert telemetry.total("gateway_requests_total") == 1
        assert telemetry.total("crypto_asym_ops_total") >= 2
        assert telemetry.total("proxy_requests_total") >= 2
        latency = telemetry.get("mesh_request_latency_seconds", mesh="canal")
        assert latency.count == 1

    def test_disabled_registry_collects_nothing(self):
        telemetry = Telemetry(enabled=False)
        self._run_canal_request(telemetry)
        assert len(telemetry) == 0

    def test_controlplane_push_emits(self):
        from repro.k8s import Cluster
        from repro.mesh import IstioControlPlane
        from repro.netsim import Topology
        with use_telemetry() as telemetry:
            sim = Simulator(0)
            topo = Topology.single_az_testbed(worker_nodes=2)
            cluster = Cluster("cp-obs", topo.all_nodes())
            cluster.create_deployment("svc0", replicas=4,
                                      labels={"app": "svc0"})
            cluster.create_service("svc0", selector={"app": "svc0"})
            plane = IstioControlPlane(sim, cluster)
            process = sim.process(plane.push_update())
            sim.run()
            assert process.value.targets > 0
            assert telemetry.total("config_pushes_total") == 1
            assert telemetry.total("config_target_acks_total") \
                == process.value.targets
            assert telemetry.total("config_push_bytes_total") \
                == process.value.total_bytes


class TestRunReportArtifacts:
    def _result(self):
        table = Table(title="t", columns=["a", "b"])
        table.add_row(1, 2.5)
        series = Series(name="s", x_label="x", y_label="y")
        series.add(1.0, 2.0)
        return ExperimentResult(exp_id="figX", title="demo",
                                tables=[table], series=[series],
                                findings={"k": 1.0}, notes=["n"])

    def test_run_report_shape(self):
        telemetry = Telemetry()
        telemetry.inc("requests_total")
        report = run_report(self._result(), telemetry, [SimProfiler()],
                            meta={"exp_id": "figX"})
        assert report["result"]["exp_id"] == "figX"
        assert report["result"]["tables"][0]["rows"] == [[1, 2.5]]
        assert report["telemetry"]["requests_total"]["kind"] == "counter"
        assert report["profilers"][0]["steps"] == 0
        json.dumps(report)  # must be JSON-serializable

    def test_write_run_artifacts(self, tmp_path):
        telemetry = Telemetry()
        telemetry.observe("latency", 0.5)
        paths = write_run_artifacts(str(tmp_path), "figX",
                                    result=self._result(),
                                    telemetry=telemetry)
        report = json.loads((tmp_path / "figX.report.json").read_text())
        assert report["result"]["findings"] == {"k": 1.0}
        trace = json.loads((tmp_path / "figX.trace.json").read_text())
        assert "traceEvents" in trace
        prom = (tmp_path / "figX.prom").read_text()
        assert "latency_count 1" in prom
        assert set(paths) == {"report", "metrics", "trace"}

    def test_cli_report_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        code = main(["prog", "--report", str(tmp_path), "fig8_recovery"])
        assert code == 0
        report = json.loads(
            (tmp_path / "fig8_recovery.report.json").read_text())
        assert report["meta"]["exp_id"] == "fig8_recovery"
        assert report["profilers"]  # simulators ran under the profiler
        json.loads((tmp_path / "fig8_recovery.trace.json").read_text())
        assert (tmp_path / "fig8_recovery.prom").exists()
        assert "fig8_recovery" in capsys.readouterr().out

    def test_cli_report_flag_missing_dir_errors(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["prog", "--report"]) == 1
