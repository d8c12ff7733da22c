"""Tests for the proxyless mode (Appendix B)."""

import pytest

from repro.core import (
    EniLimitExceeded,
    EniRegistry,
    ProxylessCanalMesh,
)
from repro.k8s import Cluster
from repro.mesh import HttpRequest
from repro.mesh.base import MeshError
from repro.netsim import Topology
from repro.simcore import Simulator


def build_proxyless(seed=7, **mesh_kwargs):
    sim = Simulator(seed)
    topo = Topology.single_az_testbed(worker_nodes=2)
    cluster = Cluster("testbed", topo.all_nodes())
    mesh = ProxylessCanalMesh(sim, **mesh_kwargs)
    mesh.attach(cluster)
    for index in range(3):
        cluster.create_deployment(f"svc{index}", replicas=5,
                                  labels={"app": f"svc{index}"})
        cluster.create_service(f"svc{index}",
                               selector={"app": f"svc{index}"})
    return sim, cluster, mesh


def one_request(sim, cluster, mesh, service="svc1"):
    client = cluster.pods["svc0-1"]

    def scenario():
        connection = yield sim.process(
            mesh.open_connection(client, service))
        response = yield sim.process(
            mesh.request(connection, HttpRequest()))
        return connection, response

    process = sim.process(scenario())
    sim.run()
    return process.value


class TestEniRegistry:
    def test_allocation_per_pod(self):
        sim, cluster, mesh = build_proxyless()
        pod = cluster.pods["svc0-1"]
        assert mesh.enis.eni_of(pod.name) is not None

    def test_per_node_limit_hit(self):
        """The paper's first proxyless issue: the interface limit is
        easily hit as containers grow."""
        sim = Simulator(0)
        topo = Topology.single_az_testbed(worker_nodes=1)
        cluster = Cluster("small", topo.all_nodes())
        mesh = ProxylessCanalMesh(sim, eni_registry=EniRegistry(
            max_per_node=3))
        mesh.attach(cluster)
        cluster.create_pod("p1")
        cluster.create_pod("p2")
        cluster.create_pod("p3")
        with pytest.raises(EniLimitExceeded):
            cluster.create_pod("p4")

    def test_eni_memory_accounting(self):
        """The second issue: each interface costs node memory."""
        registry = EniRegistry(memory_mb_per_eni=16)
        sim, cluster, mesh = build_proxyless(eni_registry=registry)
        pods_on_w1 = sum(1 for p in cluster.pods.values()
                         if p.node_name == "worker1")
        assert registry.node_memory_mb("worker1") == 16 * pods_on_w1

    def test_release_frees_slot(self):
        registry = EniRegistry(max_per_node=2)
        sim = Simulator(0)
        topo = Topology.single_az_testbed(worker_nodes=1)
        cluster = Cluster("small", topo.all_nodes())
        mesh = ProxylessCanalMesh(sim, eni_registry=registry)
        mesh.attach(cluster)
        cluster.create_pod("p1")
        cluster.create_pod("p2")
        cluster.delete_pod("p1")
        cluster.create_pod("p3")  # slot freed

    def test_authentication_checks_token(self):
        registry = EniRegistry()
        sim, cluster, mesh = build_proxyless(eni_registry=registry)
        pod = cluster.pods["svc0-1"]
        eni = registry.eni_of(pod.name)
        assert registry.authenticate(pod.name, eni.auth_token)
        assert not registry.authenticate(pod.name, "forged")
        assert not registry.authenticate("ghost-pod", eni.auth_token)


class TestProxylessDataplane:
    def test_request_succeeds(self):
        sim, cluster, mesh = build_proxyless()
        _conn, response = one_request(sim, cluster, mesh)
        assert response.ok

    def test_zero_user_cluster_cpu(self):
        """The whole point: not even an on-node proxy's CPU remains."""
        sim, cluster, mesh = build_proxyless()
        one_request(sim, cluster, mesh)
        assert mesh.user_tiers() == []
        assert mesh.user_cpu_seconds() == 0.0
        assert mesh.infra_cpu_seconds() > 0.0

    def test_dns_redirection_recorded(self):
        sim, cluster, mesh = build_proxyless()
        assert "svc1" in mesh.dns_redirections
        assert mesh.dns_redirections["svc1"].endswith(".mesh.gateway")

    def test_observability_is_partial(self):
        sim, cluster, mesh = build_proxyless()
        assert mesh.observability_coverage == "partial"

    def test_faster_than_nothing_but_uses_gateway(self):
        sim, cluster, mesh = build_proxyless()
        _conn, response = one_request(sim, cluster, mesh)
        replicas = [r for b in mesh.gateway.all_backends
                    for r in b.replicas]
        assert sum(r.requests_served for r in replicas) == 1

    def test_pod_without_eni_rejected(self):
        sim, cluster, mesh = build_proxyless()
        pod = cluster.pods["svc0-1"]
        mesh.enis.release(pod.name)

        def scenario():
            yield sim.process(mesh.open_connection(pod, "svc1"))

        sim.process(scenario())
        with pytest.raises(MeshError, match="ENI"):
            sim.run()

    def test_gateway_outage_503(self):
        sim, cluster, mesh = build_proxyless()
        for backend in mesh.gateway.all_backends:
            backend.fail_all()
        _conn, response = one_request(sim, cluster, mesh)
        assert response.status == 503

    def test_lower_latency_than_full_canal(self):
        """No on-node processing → slightly lower latency (at the cost
        of observability and zero-trust depth)."""
        from repro.experiments.testbed import build_testbed
        sim, cluster, mesh = build_proxyless()
        _conn, proxyless_resp = one_request(sim, cluster, mesh)
        run = build_testbed("canal")

        def scenario():
            connection = yield run.sim.process(
                run.mesh.open_connection(run.client_pod, "svc1"))
            response = yield run.sim.process(
                run.mesh.request(connection, HttpRequest()))
            return response

        process = run.sim.process(scenario())
        run.sim.run()
        assert proxyless_resp.latency_s <= process.value.latency_s
