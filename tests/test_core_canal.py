"""Tests for the full Canal Mesh architecture."""

import pytest

from repro.core.canal import OFFLOAD_LOCAL, OFFLOAD_NONE, OFFLOAD_REMOTE
from repro.experiments.testbed import build_testbed
from repro.mesh import HttpRequest
from repro.mesh.policy import AuthorizationPolicy
from repro.obs import Telemetry, use_telemetry


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


class TestCanalDataplane:
    def test_request_succeeds(self):
        run = build_testbed("canal")
        _conn, response = run_one_request(run)
        assert response.ok

    def test_no_sidecars_injected(self):
        run = build_testbed("canal")
        assert all(pod.sidecar is None for pod in run.cluster.pods.values())

    def test_l7_runs_on_gateway_not_user_cluster(self):
        """The decoupling headline: L7 CPU is provider-side."""
        run = build_testbed("canal")
        run_one_request(run)
        assert run.mesh.infra_cpu_seconds() > 0
        replicas = [r for b in run.mesh.gateway.all_backends
                    for r in b.replicas]
        assert sum(r.requests_served for r in replicas) == 1

    def test_user_cpu_is_onnode_only(self):
        run = build_testbed("canal")
        run_one_request(run)
        onnode_cpu = sum(p.tier.cpu.busy_time()
                         for p in run.mesh.onnode.values())
        assert run.mesh.user_cpu_seconds() == pytest.approx(onnode_cpu)

    def test_services_registered_at_gateway(self):
        run = build_testbed("canal")
        assert len(run.mesh.gateway.registry) == 3
        for name in ("svc0", "svc1", "svc2"):
            assert run.mesh.tenant_service(name) is not None

    def test_late_service_registered_via_watch(self):
        run = build_testbed("canal")
        run.cluster.create_service("svc-late", selector={"app": "x"})
        assert run.mesh.tenant_service("svc-late") is not None

    def test_observability_flow_records_per_pod(self):
        """Functional equivalence: L4 observability with per-pod labels
        survives the move off the node (§4.1.1, Appendix A)."""
        with use_telemetry(Telemetry(enabled=True)) as telemetry:
            run = build_testbed("canal")
            run_one_request(run)
        assert telemetry.value("onnode_bytes_total",
                               node=run.client_pod.node_name,
                               pod=run.client_pod.name) > 0

    def test_authorization_enforced_at_gateway(self):
        run = build_testbed("canal")
        run.mesh.authorization.add(AuthorizationPolicy(
            service="svc1", allowed_identities=("nobody",)))
        _conn, response = run_one_request(run)
        assert response.status == 403

    def test_gateway_outage_returns_503(self):
        run = build_testbed("canal")
        for backend in run.mesh.gateway.all_backends:
            backend.fail_all()
        _conn, response = run_one_request(run)
        assert response.status == 503

    def test_invalid_offload_mode_rejected(self):
        with pytest.raises(ValueError):
            build_testbed("canal", mesh_kwargs={"crypto_offload": "bogus"})

    def test_proxy_count_is_nodes_plus_gateway(self):
        run = build_testbed("canal")
        assert run.mesh.proxy_count() == 2 + 1


class TestCryptoOffloadModes:
    def _user_cpu(self, mode, **extra):
        run = build_testbed("canal", mesh_kwargs=dict(
            crypto_offload=mode, **extra))
        from repro.workloads import ShortFlowDriver
        driver = ShortFlowDriver(run.sim, run.mesh, run.client_pod, "svc1",
                                 rps=200.0, duration_s=1.0)
        run.run_driver(driver)
        return run.mesh.user_cpu_seconds()

    def test_remote_offload_saves_user_cpu(self):
        software = self._user_cpu(OFFLOAD_NONE, software_new_cpu=False)
        remote = self._user_cpu(OFFLOAD_REMOTE)
        assert remote < software * 0.6

    def test_local_offload_saves_user_cpu(self):
        software = self._user_cpu(OFFLOAD_NONE, software_new_cpu=False)
        local = self._user_cpu(OFFLOAD_LOCAL)
        assert local < software

    def test_remote_beats_local(self):
        local = self._user_cpu(OFFLOAD_LOCAL)
        remote = self._user_cpu(OFFLOAD_REMOTE)
        assert remote < local

    def test_remote_mode_stores_keys_at_server(self):
        run = build_testbed("canal")
        server = run.mesh.key_fleet.server_in("az1")
        assert server is not None
        assert server.has_key("node/worker1")

    def test_key_server_failure_falls_back(self):
        """Appendix A: local-AZ key server failure → software fallback,
        requests keep succeeding."""
        run = build_testbed("canal")
        run.mesh.key_fleet.server_in("az1").healthy = False
        _conn, response = run_one_request(run)
        assert response.ok
        client_proxy = run.mesh.onnode[run.client_pod.node_name]
        assert client_proxy.asym_engine.fallbacks_used > 0


class TestSessionLifecycle:
    def _short_flows(self, count, close=False):
        run = build_testbed("canal")
        gateway = run.mesh.gateway

        def scenario():
            for index in range(count):
                connection = yield run.sim.process(
                    run.mesh.open_connection(run.client_pod, "svc1"))
                yield run.sim.process(
                    run.mesh.request(connection, HttpRequest()))
                if close:
                    run.mesh.close_connection(connection)

        run.sim.process(scenario())
        run.sim.run()
        replicas = [r for b in gateway.all_backends for r in b.replicas]
        return run, sum(r.sessions_used for r in replicas)

    def test_each_flow_consumes_a_session(self):
        _run, sessions = self._short_flows(20)
        assert sessions == 20

    def test_closing_connections_releases_sessions(self):
        _run, sessions = self._short_flows(20, close=True)
        assert sessions == 0

    def test_exhausted_table_rejects_new_connections(self):
        """§3.2 Issue #4 made visible: the table fills while CPU idles."""
        run = build_testbed("canal")
        gateway = run.mesh.gateway
        sid = run.mesh.tenant_service("svc1").service_id
        replica = gateway.service_backends[sid][0].replicas[0]
        replica.add_sessions(replica.config.session_capacity)

        def scenario():
            connection = yield run.sim.process(
                run.mesh.open_connection(run.client_pod, "svc1"))
            response = yield run.sim.process(
                run.mesh.request(connection, HttpRequest()))
            return response

        process = run.sim.process(scenario())
        run.sim.run()
        assert process.value.status == 503
        # CPU is nearly idle while sessions are the binding constraint.
        assert replica.cpu.busy_time() < 1e-3
