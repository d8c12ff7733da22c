"""Tests for failure injection and recovery."""

import pytest

from repro.core import (
    FailureInjector,
    GatewayConfig,
    MeshGateway,
    availability_report,
)
from repro.core.replica import ReplicaConfig
from repro.simcore import Simulator


def make_gateway(sim, services=5, backends_per_az=6):
    config = GatewayConfig(
        replicas_per_backend=2, backends_per_service_per_az=2,
        azs_per_service=2,
        replica=ReplicaConfig(cores=8, request_cost_s=100e-6))
    gateway = MeshGateway(sim, config)
    gateway.deploy_initial(["az1", "az2"], backends_per_az)
    out = []
    for index in range(services):
        tenant = gateway.registry.add_tenant(f"t{index + 1}")
        service = gateway.registry.add_service(tenant, "web",
                                               f"10.0.0.{index + 1}")
        gateway.register_service(service)
        gateway.set_service_load(service.service_id, 20_000.0)
        out.append(service)
    return gateway, out


@pytest.fixture
def sim():
    return Simulator(33)


class TestFailureInjector:
    def test_replica_failure_recorded_with_sessions(self, sim):
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        backend = gateway.all_backends[0]
        backend.replicas[0].add_sessions(1234)
        event = injector.fail_replica(backend.name,
                                      backend.replicas[0].name)
        assert event.sessions_disrupted == 1234
        assert backend.replicas[0].sessions_used == 0

    def test_replica_recovery_marks_event(self, sim):
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        backend = gateway.all_backends[0]
        injector.fail_replica(backend.name, backend.replicas[0].name)
        injector.recover_replica(backend.name, backend.replicas[0].name)
        assert injector.events[0].recovered_at is not None

    def test_replica_failure_keeps_service_up(self, sim):
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        sid = services[0].service_id
        backend = gateway.service_backends[sid][0]
        injector.fail_replica(backend.name, backend.replicas[0].name)
        assert availability_report(gateway)[sid]

    def test_backend_failure_keeps_service_up(self, sim):
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        sid = services[0].service_id
        injector.fail_backend(gateway.service_backends[sid][0].name)
        assert availability_report(gateway)[sid]

    def test_az_failure_keeps_services_up(self, sim):
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        injector.fail_az("az1")
        report = availability_report(gateway)
        assert all(report.values())
        injector.recover_az("az1")

    def test_query_of_death_isolated_by_sharding(self, sim):
        """The Fig 8 scenario: one service's entire combination dies;
        the others stay up."""
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        victim = services[0].service_id
        events = injector.query_of_death(victim)
        assert len(events) == len(gateway.service_backends[victim])
        report = availability_report(gateway)
        assert not report[victim]
        for other in services[1:]:
            assert report[other.service_id]

    def test_double_failure_is_idempotent(self, sim):
        """Failing an already-failed target returns the open event
        unchanged — disrupted sessions are never counted twice."""
        gateway, services = make_gateway(sim)
        for service in services:
            gateway.set_service_sessions(service.service_id, 10_000)
        injector = FailureInjector(sim, gateway)
        backend = gateway.all_backends[0]

        first = injector.fail_backend(backend.name)
        again = injector.fail_backend(backend.name)
        assert again is first
        assert len(injector.events) == 1

        replica = backend.replicas[0]
        r1 = injector.fail_replica(backend.name, replica.name)
        r2 = injector.fail_replica(backend.name, replica.name)
        assert r2 is r1

        az1 = injector.fail_az("az1")
        az_before = az1.sessions_disrupted
        assert injector.fail_az("az1") is az1
        assert az1.sessions_disrupted == az_before
        assert injector.disrupted_by_scope()["az"] == az_before

    def test_replica_failure_refreshes_dns_health(self, sim):
        """Killing every replica of an AZ one by one (below the
        backend-level API) must still take that AZ out of DNS."""
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        for backend in gateway.backends_by_az["az1"]:
            for replica in backend.replicas:
                injector.fail_replica(backend.name, replica.name)
        sid = services[0].service_id
        name = gateway._dns_name(sid)
        az1_records = [record for record in gateway.dns.endpoints(name)
                       if record.az == "az1"]
        assert az1_records and all(not r.healthy for r in az1_records)
        # Recovering one replica of one of the service's own az1
        # backends brings its AZ record back.
        backend = next(b for b in gateway.service_backends[sid]
                       if b.az == "az1")
        injector.recover_replica(backend.name, backend.replicas[0].name)
        az1_records = [record for record in gateway.dns.endpoints(name)
                       if record.az == "az1"]
        assert any(r.healthy for r in az1_records)

    def test_query_of_death_cascade_then_service_recovery(self, sim):
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        victim = services[0].service_id
        injector.query_of_death(victim)
        assert not availability_report(gateway)[victim]
        injector.recover_service(victim)
        report = availability_report(gateway)
        assert report[victim]
        assert all(report.values())
        assert all(event.recovered_at is not None
                   for event in injector.events)

    def test_availability_under_partial_az_recovery(self, sim):
        """AZ comes back backend by backend: services flip up as soon
        as any of their backends lives, not when the whole AZ does."""
        gateway, services = make_gateway(sim)
        injector = FailureInjector(sim, gateway)
        injector.fail_az("az1")
        injector.fail_az("az2")  # total outage
        report = availability_report(gateway)
        assert not any(report.values())
        recovered = set()
        for backend in gateway.backends_by_az["az1"]:
            gateway.recover_backend(backend.name)
            recovered.add(backend.name)
            report = availability_report(gateway)
            for service in services:
                has_live = any(b.name in recovered
                               for b in gateway.service_backends[
                                   service.service_id])
                assert report[service.service_id] == has_live
        # One whole AZ back → every service is reachable again.
        assert all(availability_report(gateway).values())
