"""Tests for failure injection and recovery."""

import pytest

from repro.core import GatewayConfig, MeshGateway
from repro.core.replica import ReplicaConfig
from repro.faults import Fault, FaultEngine, FaultPlan
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


def services_up(gateway, services):
    return [not gateway.service_outage(s.service_id) for s in services]


@pytest.fixture
def sim():
    return Simulator(33)


class TestFaultInjection:
    def test_replica_failure_returns_disrupted_sessions(self, sim):
        gateway, services = make_gateway(sim)
        backend = gateway.all_backends[0]
        backend.replicas[0].add_sessions(1234)
        assert gateway.fail_replica(backend.name,
                                    backend.replicas[0].name) == 1234
        assert backend.replicas[0].sessions_used == 0

    def test_replica_recovery_recorded_in_timeline(self, sim):
        gateway, services = make_gateway(sim)
        replica = gateway.all_backends[0].replicas[0]
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(Fault(
            kind="replica_crash", at=1.0, target=replica.name,
            duration_s=2.0)))
        sim.run(until=2.0)
        assert not replica.healthy
        sim.run(until=4.0)
        assert replica.healthy
        assert [(e["t"], e["action"]) for e in engine.timeline] == \
            [(1.0, "inject"), (3.0, "recover")]

    def test_replica_failure_keeps_service_up(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        backend = gateway.service_backends[sid][0]
        gateway.fail_replica(backend.name, backend.replicas[0].name)
        assert not gateway.service_outage(sid)

    def test_backend_failure_keeps_service_up(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.fail_backend(gateway.service_backends[sid][0].name)
        assert not gateway.service_outage(sid)

    def test_az_failure_keeps_services_up(self, sim):
        gateway, services = make_gateway(sim)
        gateway.fail_az("az1")
        assert all(services_up(gateway, services))
        gateway.recover_az("az1")

    def test_query_of_death_isolated_by_sharding(self, sim):
        """The Fig 8 scenario: one service's entire combination dies;
        the others stay up."""
        gateway, services = make_gateway(sim)
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(Fault(kind="query_of_death", at=1.0,
                                      target="service:0")))
        sim.run(until=2.0)
        victim = services[0].service_id
        backends = gateway.service_backends[victim]
        assert not any(backend.is_healthy for backend in backends)
        assert engine.timeline[0]["detail"] == (
            f"service {victim} ({len(backends)} backends cascaded)")
        up = services_up(gateway, services)
        assert not up[0]
        assert all(up[1:])

    def test_double_failure_counts_once(self, sim):
        """Failing a target that is already down disrupts nothing: its
        sessions died with the first crash and are never counted twice."""
        gateway, services = make_gateway(sim)
        for service in services:
            gateway.set_service_sessions(service.service_id, 10_000)
        backend = gateway.service_backends[services[0].service_id][0]
        assert gateway.fail_backend(backend.name) > 0
        assert gateway.fail_backend(backend.name) == 0

        other = next(b for b in gateway.all_backends
                     if b.is_healthy and b.replicas[0].sessions_used)
        replica = other.replicas[0]
        assert gateway.fail_replica(other.name, replica.name) > 0
        assert gateway.fail_replica(other.name, replica.name) == 0

        az_before = sum(r.sessions_used
                        for b in gateway.backends_by_az["az1"]
                        for r in b.replicas)
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(
            Fault(kind="az_crash", at=1.0, target="az1"),
            Fault(kind="az_crash", at=2.0, target="az1")))
        sim.run(until=3.0)
        assert az_before > 0
        assert engine.disrupted == {"az": az_before}
        assert engine.timeline[1]["detail"] == "az1 (0 sessions)"

    def test_replica_failure_refreshes_dns_health(self, sim):
        """Killing every replica of an AZ one by one (below the
        backend-level API) must still take that AZ out of DNS."""
        gateway, services = make_gateway(sim)
        for backend in gateway.backends_by_az["az1"]:
            for replica in backend.replicas:
                gateway.fail_replica(backend.name, replica.name)
        sid = services[0].service_id
        name = gateway._dns_name(sid)
        az1_records = [record for record in gateway.dns.endpoints(name)
                       if record.az == "az1"]
        assert az1_records and all(not r.healthy for r in az1_records)
        # Recovering one replica of one of the service's own az1
        # backends brings its AZ record back.
        backend = next(b for b in gateway.service_backends[sid]
                       if b.az == "az1")
        gateway.recover_replica(backend.name, backend.replicas[0].name)
        az1_records = [record for record in gateway.dns.endpoints(name)
                       if record.az == "az1"]
        assert any(r.healthy for r in az1_records)

    def test_query_of_death_cascade_then_service_recovery(self, sim):
        gateway, services = make_gateway(sim)
        engine = FaultEngine(sim, gateway=gateway)
        engine.arm(FaultPlan.of(Fault(kind="query_of_death", at=1.0,
                                      target="service:0", duration_s=5.0)))
        sim.run(until=2.0)
        assert not services_up(gateway, services)[0]
        sim.run(until=7.0)
        assert all(services_up(gateway, services))
        assert [(e["t"], e["action"]) for e in engine.timeline] == \
            [(1.0, "inject"), (6.0, "recover")]

    def test_availability_under_partial_az_recovery(self, sim):
        """AZ comes back backend by backend: services flip up as soon
        as any of their backends lives, not when the whole AZ does."""
        gateway, services = make_gateway(sim)
        gateway.fail_az("az1")
        gateway.fail_az("az2")  # total outage
        assert not any(services_up(gateway, services))
        recovered = set()
        for backend in gateway.backends_by_az["az1"]:
            gateway.recover_backend(backend.name)
            recovered.add(backend.name)
            for service in services:
                has_live = any(b.name in recovered
                               for b in gateway.service_backends[
                                   service.service_id])
                up = not gateway.service_outage(service.service_id)
                assert up == has_live
        # One whole AZ back → every service is reachable again.
        assert all(services_up(gateway, services))
