"""Tests for the Istio/Ambient/NoMesh dataplanes on the §5.1 testbed."""

import pytest

from repro.crypto import CertificateAuthority
from repro.experiments.testbed import build_testbed
from repro.k8s import ResourceRequest
from repro.mesh import (
    AuthorizationPolicy,
    HttpRequest,
    RouteRule,
    RouteTable,
    HttpMatch,
    WeightedDestination,
)
from repro.mesh.base import MeshError


def run_one_request(run, service="svc1", request=None):
    mesh, sim = run.mesh, run.sim

    def scenario():
        connection = yield sim.process(
            mesh.open_connection(run.client_pod, service))
        response = yield sim.process(
            mesh.request(connection, request or HttpRequest()))
        return connection, response

    process = sim.process(scenario())
    sim.run()
    return process.value


class TestIstioDataplane:
    def test_request_succeeds(self):
        run = build_testbed("istio")
        _conn, response = run_one_request(run)
        assert response.ok
        assert response.latency_s > 0

    def test_sidecars_injected_into_every_pod(self):
        run = build_testbed("istio")
        assert all(pod.sidecar is not None
                   for pod in run.cluster.pods.values())
        assert run.mesh.sidecars_injected == 30

    def test_sidecar_consumes_user_resources(self):
        """The intrusion problem: injected sidecars eat cluster CPU/mem."""
        run = build_testbed("istio")
        usage = run.cluster.resource_usage()
        assert usage["sidecar_cpu_millicores"] > 0
        assert usage["sidecar_memory_mb"] > 0

    def test_request_consumes_user_cpu(self):
        run = build_testbed("istio")
        run_one_request(run)
        assert run.mesh.user_cpu_seconds() > 0

    def test_proxy_count_is_pod_count(self):
        run = build_testbed("istio")
        assert run.mesh.proxy_count() == 30

    def test_authorization_denies(self):
        run = build_testbed("istio")
        run.mesh.authorization.add(AuthorizationPolicy(
            service="svc1", allowed_identities=("nobody",)))
        _conn, response = run_one_request(run)
        assert response.status == 403

    def test_dead_server_returns_503(self):
        run = build_testbed("istio")

        def scenario():
            connection = yield run.sim.process(
                run.mesh.open_connection(run.client_pod, "svc1"))
            run.cluster.delete_pod(connection.server_pod)
            response = yield run.sim.process(
                run.mesh.request(connection, HttpRequest()))
            return response

        process = run.sim.process(scenario())
        run.sim.run()
        assert process.value.status == 503

    def test_route_table_steers_to_subset(self):
        run = build_testbed("istio")
        run.cluster.create_deployment(
            "svc1-canary", replicas=2,
            labels={"app": "svc1", "version": "canary"})
        table = RouteTable("svc1", [RouteRule(
            HttpMatch(), destinations=(WeightedDestination("canary"),))])
        run.mesh.set_route_table(table)
        pod = run.mesh.pick_endpoint("svc1", HttpRequest())
        assert pod.labels.get("version") == "canary"

    def test_unknown_service_raises(self):
        run = build_testbed("istio")
        with pytest.raises(MeshError):
            run.mesh.pick_endpoint("ghost")

    def test_mtls_session_established(self):
        run = build_testbed("istio")
        connection, _resp = run_one_request(run)
        assert connection.session is not None


def _one_endpoint_service(run, name="solo"):
    run.cluster.create_deployment(name, replicas=1, labels={"app": name})
    run.cluster.create_service(name, selector={"app": name})
    return name


def _count_signatures(monkeypatch):
    signed = [0]
    sign = CertificateAuthority._sign

    def counting_sign(self, payload):
        signed[0] += 1
        return sign(self, payload)

    monkeypatch.setattr(CertificateAuthority, "_sign", counting_sign)
    return signed


class TestWorkloadCertificates:
    """Each pod's certificate is issued once and reused by every
    connection, as an SDS-delivered SVID is."""

    def test_short_flows_between_one_pod_pair_sign_two_certs(
            self, monkeypatch):
        run = build_testbed("istio")
        service = _one_endpoint_service(run)
        signed = _count_signatures(monkeypatch)
        for _ in range(20):
            _conn, response = run_one_request(run, service)
            assert response.ok
        assert signed[0] == 2

    def test_rotation_reissues_on_the_next_connection(self, monkeypatch):
        run = build_testbed("istio")
        service = _one_endpoint_service(run)
        run_one_request(run, service)
        client_id = f"spiffe://{run.client_pod.tenant}/{run.client_pod.name}"
        before = run.mesh.ca.issued_for(client_id)
        run.mesh.ca.rotate_secret()
        assert not run.mesh.ca.verify(before, run.sim.now)
        signed = _count_signatures(monkeypatch)
        connection, response = run_one_request(run, service)
        assert response.ok and connection.session is not None
        assert signed[0] == 2
        assert run.mesh.ca.issued_for(client_id) is not before


class TestAmbientDataplane:
    def test_request_succeeds(self):
        run = build_testbed("ambient")
        _conn, response = run_one_request(run)
        assert response.ok

    def test_proxy_count_is_nodes_plus_services(self):
        """O(node + service), the paper's Ambient accounting."""
        run = build_testbed("ambient")
        assert run.mesh.proxy_count() == 2 + 3

    def test_no_sidecars_injected(self):
        run = build_testbed("ambient")
        assert all(pod.sidecar is None for pod in run.cluster.pods.values())

    def test_l4_only_service_skips_waypoint(self):
        run = build_testbed("ambient")
        run.mesh.set_l7_enabled("svc1", False)
        run_one_request(run)
        assert run.mesh.waypoint_requests.get("svc1", 0) == 0

    def test_l7_service_uses_waypoint(self):
        run = build_testbed("ambient")
        run_one_request(run)
        assert run.mesh.waypoint_requests.get("svc1", 0) == 1

    def test_l4_only_is_faster(self):
        l7 = build_testbed("ambient")
        _c, with_l7 = run_one_request(l7)
        l4 = build_testbed("ambient")
        l4.mesh.set_l7_enabled("svc1", False)
        _c, without_l7 = run_one_request(l4)
        assert without_l7.latency_s < with_l7.latency_s

    def test_new_service_gets_l7_by_default(self):
        run = build_testbed("ambient")
        run.cluster.create_service("svc-new", selector={"app": "x"})
        assert run.mesh.l7_enabled("svc-new")

    def test_user_cpu_below_istio(self):
        istio = build_testbed("istio")
        run_one_request(istio)
        ambient = build_testbed("ambient")
        run_one_request(ambient)
        assert ambient.mesh.user_cpu_seconds() < istio.mesh.user_cpu_seconds()


class TestNoMeshBaseline:
    def test_request_succeeds(self):
        run = build_testbed("no-mesh")
        _conn, response = run_one_request(run)
        assert response.ok

    def test_no_user_cpu(self):
        run = build_testbed("no-mesh")
        run_one_request(run)
        assert run.mesh.user_cpu_seconds() == 0.0

    def test_fastest_architecture(self):
        baseline = build_testbed("no-mesh")
        _c, base_resp = run_one_request(baseline)
        istio = build_testbed("istio")
        _c, istio_resp = run_one_request(istio)
        assert base_resp.latency_s < istio_resp.latency_s
