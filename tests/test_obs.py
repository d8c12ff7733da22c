"""Tests for the unified telemetry layer (repro.obs)."""

import json
import sys

import pytest

from repro.experiments.base import ExperimentResult, Series, Table
from repro.experiments.testbed import MESH_CLASSES, build_testbed
from repro.mesh import AuthorizationPolicy, HttpRequest
from repro.obs import (
    LayerSamples,
    Span,
    Telemetry,
    TraceCollector,
    chrome_trace,
    get_telemetry,
    prometheus_text,
    run_report,
    sample_layers,
    use_telemetry,
    write_run_artifacts,
)
from repro.obs.wallsample import _file_layer, _stack_layer
from repro.simcore import Simulator, percentile
from repro.simcore import metrics as simcore_metrics

#: Top-level ``repro`` packages: the only layer names besides "other".
REPRO_PACKAGES = {"core", "crypto", "experiments", "faults", "fleet", "k8s",
                  "kernel", "lint", "mesh", "netsim", "obs", "resilience",
                  "runtime", "simcore", "workloads"}


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

    def test_merge_adds_counters_and_histograms_and_takes_gauges(self):
        merged, point = Telemetry(), Telemetry()
        merged.inc("requests_total", mesh="canal")
        merged.set("water_level", 0.4)
        merged.observe("latency", 0.5, buckets=(1.0,))
        point.inc("requests_total", amount=2, mesh="canal")
        point.inc("requests_total", mesh="istio")
        point.set("water_level", 0.7)
        point.observe("latency", 1.5, buckets=(1.0,))
        merged.merge(point)
        assert merged.value("requests_total", mesh="canal") == 3
        assert merged.value("requests_total", mesh="istio") == 1
        assert merged.value("water_level") == 0.7
        histogram = merged.get("latency")
        assert histogram.counts == [1, 1]
        assert (histogram.count, histogram.sum) == (2, 2.0)

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


def _toy_simulation(seed):
    sim = Simulator(seed=seed)
    draws = []

    def worker():
        for _ in range(20_000):
            yield sim.timeout(sim.rng.random())
            draws.append((sim.now, sim.rng.random()))

    def ticker():
        for _ in range(5):
            yield sim.timeout(4.0)
            draws.append((sim.now, "tick"))

    sim.process(worker(), name="worker-1")
    sim.process(ticker(), name="ticker-1")
    sim.run()
    return draws, sim.now, sim._sequence


class TestWallSampler:
    @pytest.fixture(scope="class")
    def busy(self):
        """Samples over ~0.3 s spent in ``simcore.metrics.percentile``."""
        values = [float((index * 7919) % 100_003) for index in range(200_000)]
        with sample_layers() as layers:
            for _ in range(2_000):  # bounded even if no sample ever lands
                percentile(values, 99.0)
                if layers.samples >= 60:
                    break
        return layers

    def test_names_busy_package(self, busy):
        shares = busy.shares()
        assert max(shares, key=shares.get) == "simcore"
        assert set(shares) <= REPRO_PACKAGES | {"other"}

    def test_shares_sum_to_one(self, busy):
        assert busy.samples >= 60
        assert sum(busy.shares().values()) == pytest.approx(1.0)
        report = busy.to_dict()
        assert report["samples"] == busy.samples
        assert report["shares"] == busy.shares()

    def test_stack_outside_repro_counts_as_other(self):
        assert _file_layer(simcore_metrics.__file__) == "simcore"
        assert _file_layer(__file__) == ""
        assert _stack_layer(sys._getframe(), {}) == "other"
        assert _stack_layer(None, {}) == "other"
        assert LayerSamples().shares() == {}

    def test_sampling_leaves_the_simulation_unchanged(self):
        plain = _toy_simulation(seed=3)
        with sample_layers():
            sampled = _toy_simulation(seed=3)
        assert sampled == plain


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

    @pytest.mark.parametrize("mesh_name,outcome", [
        (mesh_name, outcome) for mesh_name in sorted(MESH_CLASSES)
        for outcome in ("ok", "403", "503")
        # No mesh has no authorization to deny a request.
        if (mesh_name, outcome) != ("no-mesh", "403")])
    def test_every_outcome_is_recorded(self, mesh_name, outcome):
        """Each mesh counts every outcome it returns, by status."""
        with use_telemetry() as telemetry:
            run = build_testbed(mesh_name)
            if outcome == "403":
                run.mesh.authorization.add(AuthorizationPolicy(
                    service="svc1", allowed_identities=("nobody",)))

            def scenario():
                connection = yield run.sim.process(
                    run.mesh.open_connection(run.client_pod, "svc1"))
                if outcome == "503":
                    run.cluster.delete_pod(connection.server_pod)
                response = yield run.sim.process(
                    run.mesh.request(connection, HttpRequest()))
                return connection, response

            process = run.sim.process(scenario())
            run.sim.run()
        connection, response = process.value
        assert response.status == (200 if outcome == "ok" else int(outcome))
        assert telemetry.value("mesh_requests_total", mesh=mesh_name,
                               result=outcome, service="svc1") == 1
        assert telemetry.total("mesh_requests_total") == 1
        latency = telemetry.get("mesh_request_latency_seconds",
                                mesh=mesh_name)
        assert latency.count == 1
        succeeded = int(outcome == "ok")
        assert connection.requests_sent == succeeded
        assert len(run.mesh.latency) == succeeded

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
        layers = LayerSamples()
        layers.counts.update(simcore=3, mesh=1)
        report = run_report(self._result(), telemetry,
                            meta={"exp_id": "figX"}, layers=layers)
        assert report["result"]["exp_id"] == "figX"
        assert report["result"]["tables"][0]["rows"] == [[1, 2.5]]
        assert report["telemetry"]["requests_total"]["kind"] == "counter"
        assert report["layers"] == {
            "samples": 4, "shares": {"mesh": 0.25, "simcore": 0.75}}
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
        # The result's fault timeline: 3 seeds x 5 faults x inject/recover.
        assert report["meta"]["faults_recorded"] == len(report["faults"]) \
            == 30
        shares = report["layers"]["shares"]
        assert report["layers"]["samples"] > 0
        assert set(shares) <= REPRO_PACKAGES | {"other"}
        assert sum(shares.values()) == pytest.approx(1.0)
        json.loads((tmp_path / "fig8_recovery.trace.json").read_text())
        assert (tmp_path / "fig8_recovery.prom").exists()
        assert "fig8_recovery" in capsys.readouterr().out

    def test_cli_report_flag_missing_dir_errors(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["prog", "--report"]) == 1
