"""Cross-module integration tests: full scenarios end to end."""

import pytest

from repro.core import (
    AnomalySignals,
    GatewayMonitor,
    RapidResponder,
    SandboxManager,
    ScalingEngine,
    ScalingTimings,
)
from repro.experiments.cloud_ops import build_production_gateway
from repro.experiments.testbed import build_testbed
from repro.mesh import HttpRequest
from repro.simcore import Simulator
from repro.workloads import ClosedLoopDriver, OpenLoopDriver


class TestThreeArchitectureComparison:
    """The paper's headline comparisons, asserted as orderings."""

    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for mesh_name in ("no-mesh", "istio", "ambient", "canal"):
            run = build_testbed(mesh_name)
            driver = ClosedLoopDriver(run.sim, run.mesh, run.client_pod,
                                      "svc1", connections=1,
                                      requests_per_connection=50,
                                      think_time_s=1.0)
            report = run.run_driver(driver)
            out[mesh_name] = (report, run.mesh)
        return out

    def test_latency_ordering(self, reports):
        """Fig 10: no-mesh < canal < ambient < istio."""
        means = {name: report.latency.mean
                 for name, (report, _mesh) in reports.items()}
        assert (means["no-mesh"] < means["canal"]
                < means["ambient"] < means["istio"])

    def test_latency_ratios_in_paper_bands(self, reports):
        means = {name: report.latency.mean
                 for name, (report, _mesh) in reports.items()}
        assert 1.4 < means["istio"] / means["canal"] < 2.2
        assert 1.1 < means["ambient"] / means["canal"] < 1.6

    def test_user_cpu_ordering(self, reports):
        """Fig 13: canal ≪ ambient ≪ istio on user-cluster CPU."""
        cpu = {name: mesh.user_cpu_seconds()
               for name, (_report, mesh) in reports.items()}
        assert cpu["canal"] < cpu["ambient"] < cpu["istio"]

    def test_user_cpu_ratios_in_paper_bands(self, reports):
        cpu = {name: mesh.user_cpu_seconds()
               for name, (_report, mesh) in reports.items()}
        assert 10.0 < cpu["istio"] / cpu["canal"] < 22.0
        assert 3.5 < cpu["ambient"] / cpu["canal"] < 8.0

    def test_all_requests_succeeded(self, reports):
        for name, (report, _mesh) in reports.items():
            assert report.error_count == 0, name


class TestNoisyNeighborEndToEnd:
    def test_alert_rca_scale_pipeline(self):
        """Monitor → alert → RCA → precise Reuse scaling, closed loop."""
        sim = Simulator(77)
        gateway, services = build_production_gateway(sim, backends_per_az=10)
        for service in services:
            gateway.set_service_load(service.service_id, 25_000.0)
        monitor = GatewayMonitor(sim, gateway, interval_s=1.0)
        scaling = ScalingEngine(
            sim, gateway, timings=ScalingTimings(reuse_median_s=5.0,
                                                 settle_median_s=3.0),
            target_water=0.35)
        sandbox = SandboxManager(sim, gateway)
        responder = RapidResponder(
            sim, gateway, monitor, scaling, sandbox,
            signal_provider=lambda sid: AnomalySignals(
                rps_growth=4.0, session_growth=4.0, water_growth=3.0))
        monitor.start()
        # services[1] is HTTP (weight 1): the surge sizing below keeps
        # the pool able to absorb it via Reuse alone.
        noisy = services[1]

        def surge():
            for second in range(120):
                rps = 25_000.0 if second < 30 else 400_000.0
                gateway.set_service_load(noisy.service_id, rps)
                yield sim.timeout(1.0)

        sim.process(surge())
        sim.run(until=121.0)
        # The alert fired, the RCA found the noisy service, scaling ran,
        # and the hottest backend is back under the target.
        assert any(a.level == "backend" for a in monitor.alerts)
        scaled = [r for r in responder.responses if r.action == "scale"]
        assert scaled
        assert scaled[0].service_id == noisy.service_id
        hottest = max(b.water_level()
                      for b in gateway.service_backends[noisy.service_id])
        assert hottest < 0.45

    def test_peers_unaffected(self):
        sim = Simulator(78)
        gateway, services = build_production_gateway(sim, backends_per_az=10)
        for service in services:
            gateway.set_service_load(service.service_id, 25_000.0)
        noisy, peers = services[0], services[1:]
        gateway.set_service_load(noisy.service_id, 300_000.0)
        for peer in peers:
            carried = sum(b.service_rps(peer.service_id)
                          for b in gateway.service_backends[peer.service_id])
            assert carried == pytest.approx(25_000.0)
            assert not gateway.service_outage(peer.service_id)


class TestFailureRecoveryUnderLoad:
    def test_canal_requests_survive_backend_failure(self):
        """DES-mode hierarchical recovery: fail one gateway backend
        mid-run; requests keep succeeding via the survivors."""
        run = build_testbed("canal")
        gateway = run.mesh.gateway
        # Give the testbed gateway a second backend so there is a
        # survivor, and re-register services over both.
        spare = gateway.deploy_backend("az1")
        for service_name in ("svc0", "svc1", "svc2"):
            sid = run.mesh.tenant_service(service_name).service_id
            gateway.extend_service(sid, spare)

        statuses = []

        def scenario():
            connection = yield run.sim.process(
                run.mesh.open_connection(run.client_pod, "svc1"))
            for index in range(20):
                if index == 10:
                    gateway.fail_backend(
                        gateway.all_backends[0].name)
                response = yield run.sim.process(
                    run.mesh.request(connection, HttpRequest()))
                statuses.append(response.status)

        run.sim.process(scenario())
        run.sim.run()
        assert statuses.count(200) == 20

    def test_istio_server_pod_loss_is_visible(self):
        run = build_testbed("istio")
        statuses = []

        def scenario():
            connection = yield run.sim.process(
                run.mesh.open_connection(run.client_pod, "svc1"))
            run.cluster.delete_pod(connection.server_pod)
            response = yield run.sim.process(
                run.mesh.request(connection, HttpRequest()))
            statuses.append(response.status)

        run.sim.process(scenario())
        run.sim.run()
        assert statuses == [503]


class TestMultiTenantIsolationEndToEnd:
    def test_two_tenants_with_overlapping_ips(self):
        """Two clusters with identical pod CIDRs attach to one gateway;
        the VNI→service-ID mapping keeps them apart."""
        from repro.core import CanalMesh, GatewayConfig, MeshGateway
        from repro.core.replica import ReplicaConfig
        from repro.k8s import Cluster
        from repro.netsim import Topology

        sim = Simulator(55)
        config = GatewayConfig(
            replicas_per_backend=1, backends_per_service_per_az=1,
            azs_per_service=1, replica=ReplicaConfig(cores=4))
        gateway = MeshGateway(sim, config)
        gateway.deploy_backend("az1")

        meshes = []
        for tenant_index in (1, 2):
            topo = Topology.single_az_testbed(worker_nodes=2)
            cluster = Cluster(f"cluster{tenant_index}", topo.all_nodes(),
                              tenant=f"tenant{tenant_index}",
                              vni=100 + tenant_index)
            mesh = CanalMesh(sim, gateway=gateway)
            mesh.attach(cluster)
            cluster.create_deployment("web", replicas=4,
                                      labels={"app": "web"})
            cluster.create_service("web", selector={"app": "web"})
            meshes.append((cluster, mesh))

        (cluster1, mesh1), (cluster2, mesh2) = meshes
        service1 = mesh1.tenant_service("web")
        service2 = mesh2.tenant_service("web")
        # Same inner VIP is possible; service IDs must differ.
        assert service1.service_id != service2.service_id
        assert service1.tenant.name != service2.tenant.name

        def scenario(mesh, cluster):
            client = next(iter(cluster.pods.values()))
            connection = yield sim.process(
                mesh.open_connection(client, "web"))
            response = yield sim.process(
                mesh.request(connection, HttpRequest()))
            return response

        first = sim.process(scenario(mesh1, cluster1))
        second = sim.process(scenario(mesh2, cluster2))
        sim.run()
        assert first.value.ok and second.value.ok


class TestSaturationBehaviour:
    def test_istio_p99_spikes_beyond_knee(self):
        """Fig 11's mechanism: past saturation, P99 explodes."""
        reports = {}
        for rps in (400.0, 2600.0):
            run = build_testbed("istio")
            driver = OpenLoopDriver(run.sim, run.mesh, run.client_pod,
                                    "svc1", rps=rps, duration_s=2.0,
                                    connections=50)
            reports[rps] = run.run_driver(driver)
        low = reports[400.0].latency.percentile(99)
        high = reports[2600.0].latency.percentile(99)
        assert high > 5 * low

    def test_canal_stable_where_istio_saturates(self):
        run = build_testbed("canal")
        driver = OpenLoopDriver(run.sim, run.mesh, run.client_pod,
                                "svc1", rps=2600.0, duration_s=2.0,
                                connections=50)
        report = run.run_driver(driver)
        assert report.latency.percentile(99) < 20e-3
