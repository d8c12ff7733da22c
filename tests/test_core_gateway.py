"""Tests for the multi-tenant mesh gateway."""

import math

import pytest

from repro.core import GatewayConfig, MeshGateway, NoBackendAvailable
from repro.core.replica import ReplicaConfig
from repro.netsim import FiveTuple
from repro.simcore import Simulator


def make_gateway(sim, azs=2, backends_per_az=4, services=4):
    config = GatewayConfig(
        replicas_per_backend=2, backends_per_service_per_az=2,
        azs_per_service=2,
        replica=ReplicaConfig(cores=8, request_cost_s=100e-6,
                              request_cost_sigma=0.0))
    gateway = MeshGateway(sim, config)
    gateway.deploy_initial([f"az{i + 1}" for i in range(azs)],
                           backends_per_az)
    tenant_services = []
    for index in range(services):
        tenant = gateway.registry.add_tenant(f"t{index + 1}")
        service = gateway.registry.add_service(
            tenant, "web", f"10.0.0.{index + 1}")
        gateway.register_service(service)
        tenant_services.append(service)
    return gateway, tenant_services


@pytest.fixture
def sim():
    return Simulator(3)


class TestLoadValidation:
    @pytest.mark.parametrize("rps", [math.nan, math.inf, -math.inf])
    def test_set_service_load_rejects_non_finite(self, sim, rps):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        with pytest.raises(ValueError, match="rps"):
            gateway.set_service_load(sid, rps)
        assert sid not in gateway.service_rps
        assert all(b.water_level() == 0.0 for b in gateway.all_backends)


class TestRegistration:
    def test_service_gets_shuffle_shard(self, sim):
        gateway, services = make_gateway(sim)
        backends = gateway.service_backends[services[0].service_id]
        assert len(backends) == 4
        assert len({b.az for b in backends}) == 2

    def test_duplicate_registration_rejected(self, sim):
        gateway, services = make_gateway(sim)
        with pytest.raises(ValueError):
            gateway.register_service(services[0])

    def test_dns_records_per_az(self, sim):
        gateway, services = make_gateway(sim)
        name = f"svc-{services[0].service_id}.mesh.gateway"
        endpoints = gateway.dns.endpoints(name)
        assert {record.az for record in endpoints} == {"az1", "az2"}

    def test_pool_grows_when_combinations_exhaust(self, sim):
        config = GatewayConfig(backends_per_service_per_az=2,
                               azs_per_service=1,
                               replica=ReplicaConfig(cores=2))
        gateway = MeshGateway(sim, config)
        gateway.deploy_initial(["az1"], 2)  # C(2,2)=1 combination
        tenant = gateway.registry.add_tenant("t")
        for index in range(2):
            service = gateway.registry.add_service(
                tenant, f"s{index}", f"10.0.1.{index + 1}")
            gateway.register_service(service)
        assert len(gateway.backends_by_az["az1"]) > 2

    def test_exhaustion_fallback_grows_only_smallest_pools(self, sim):
        """The fallback must leave already-large AZ pools alone."""
        config = GatewayConfig(backends_per_service_per_az=2,
                               azs_per_service=2,
                               replica=ReplicaConfig(cores=2))
        gateway = MeshGateway(sim, config)
        gateway.deploy_initial(["az1"], 3)
        gateway.deploy_initial(["az2"], 1)  # too small: forces the retry
        tenant = gateway.registry.add_tenant("t")
        service = gateway.registry.add_service(tenant, "s0", "10.0.1.1")
        backends = gateway.register_service(service)
        assert len(backends) == 4
        # Only az2 (the smallest pool) grew; az1 stayed at 3.
        assert len(gateway.backends_by_az["az1"]) == 3
        assert len(gateway.backends_by_az["az2"]) == 2

    def test_exhaustion_after_retry_raises_clear_error(self, sim):
        """A second exhaustion must explain itself, not re-raise bare."""
        from repro.core.sharding import ShardingError
        config = GatewayConfig(backends_per_service_per_az=2,
                               azs_per_service=2,
                               replica=ReplicaConfig(cores=2))
        gateway = MeshGateway(sim, config)
        gateway.deploy_initial(["az1"], 2)  # one AZ: growth cannot help
        tenant = gateway.registry.add_tenant("t")
        service = gateway.registry.add_service(tenant, "s0", "10.0.1.1")
        with pytest.raises(ShardingError,
                           match="still exhausted") as excinfo:
            gateway.register_service(service)
        assert service.qualified_name in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ShardingError)


class TestFluidLoad:
    def test_load_spreads_across_backends(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.set_service_load(sid, 40_000.0)
        carriers = gateway.service_backends[sid]
        shares = [b.service_rps(sid) for b in carriers]
        assert all(s == pytest.approx(10_000.0) for s in shares)

    def test_negative_load_rejected(self, sim):
        gateway, services = make_gateway(sim)
        with pytest.raises(ValueError):
            gateway.set_service_load(services[0].service_id, -1.0)

    def test_extend_service_lowers_water(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.set_service_load(sid, 100_000.0)
        before = max(b.water_level()
                     for b in gateway.service_backends[sid])
        spare = next(b for b in gateway.all_backends
                     if not b.hosts_service(sid))
        gateway.extend_service(sid, spare)
        after = max(b.water_level()
                    for b in gateway.service_backends[sid])
        assert after < before

    def test_extend_duplicate_rejected(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        backend = gateway.service_backends[sid][0]
        with pytest.raises(ValueError):
            gateway.extend_service(sid, backend)

    def test_shrink_service(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.set_service_load(sid, 40_000.0)
        victim = gateway.service_backends[sid][0]
        gateway.shrink_service(sid, victim)
        assert victim.service_rps(sid) == 0.0
        assert len(gateway.service_backends[sid]) == 3

    def test_cannot_shrink_last_backend(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        backends = list(gateway.service_backends[sid])
        for backend in backends[:-1]:
            gateway.shrink_service(sid, backend)
        with pytest.raises(ValueError):
            gateway.shrink_service(sid, backends[-1])

    def test_throttle_caps_offered_load(self, sim):
        """Redirector-level early drop (§6.2)."""
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.throttle_service(sid, 10_000.0)
        gateway.set_service_load(sid, 100_000.0)
        total = sum(b.service_rps(sid)
                    for b in gateway.service_backends[sid])
        assert total == pytest.approx(10_000.0)
        gateway.unthrottle_service(sid)
        gateway.set_service_load(sid, 100_000.0)
        total = sum(b.service_rps(sid)
                    for b in gateway.service_backends[sid])
        assert total == pytest.approx(100_000.0)


class TestHierarchicalFailure:
    def test_backend_failure_shifts_load(self, sim):
        """Level 2: other shuffle-shard backends absorb the failure."""
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.set_service_load(sid, 30_000.0)
        victim = gateway.service_backends[sid][0]
        gateway.fail_backend(victim.name)
        survivors = [b for b in gateway.service_backends[sid]
                     if b.is_healthy]
        assert sum(b.service_rps(sid) for b in survivors) == pytest.approx(
            30_000.0)
        assert not gateway.service_outage(sid)

    def test_az_failure_served_by_other_az(self, sim):
        """Level 3: AZ-wide outage falls back cross-AZ."""
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.set_service_load(sid, 30_000.0)
        gateway.fail_az("az1")
        assert not gateway.service_outage(sid)
        live = [b for b in gateway.service_backends[sid] if b.is_healthy]
        assert all(b.az == "az2" for b in live)

    def test_dns_tracks_az_health(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        name = f"svc-{sid}.mesh.gateway"
        gateway.fail_az("az1")
        record = gateway.dns.resolve(name, client_az="az1")
        assert record.az == "az2"
        gateway.recover_az("az1")
        record = gateway.dns.resolve(name, client_az="az1")
        assert record.az == "az1"

    def test_total_outage_detected(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        for backend in gateway.service_backends[sid]:
            gateway.fail_backend(backend.name)
        assert gateway.service_outage(sid)

    def test_other_services_survive_query_of_death(self, sim):
        """Shuffle sharding: one service's total failure leaves every
        other service with healthy backends."""
        gateway, services = make_gateway(sim, services=6, backends_per_az=6)
        victim_sid = services[0].service_id
        for backend in gateway.service_backends[victim_sid]:
            gateway.fail_backend(backend.name)
        for other in services[1:]:
            assert not gateway.service_outage(other.service_id)

    def test_recovery_restores_distribution(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.set_service_load(sid, 40_000.0)
        victim = gateway.service_backends[sid][0]
        gateway.fail_backend(victim.name)
        gateway.recover_backend(victim.name)
        assert victim.service_rps(sid) == pytest.approx(10_000.0)


class TestDesDataplane:
    def test_request_reaches_replica(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        flow = FiveTuple("10.0.0.1", 12345, "10.9.9.9", 443)
        process = sim.process(gateway.process_request(
            sid, flow, is_syn=True, client_az="az1"))
        sim.run()
        result = process.value
        assert result.replica.requests_served == 1

    def test_requests_prefer_local_az(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        result = gateway.deliver(
            sid, FiveTuple("10.0.0.1", 1, "10.9.9.9", 443),
            is_syn=True, client_az="az2")
        assert result.replica.az == "az2"

    def test_flow_stickiness_through_gateway(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        flow = FiveTuple("10.0.0.1", 777, "10.9.9.9", 443)
        first = gateway.deliver(sid, flow, is_syn=True, client_az="az1")
        again = gateway.deliver(sid, flow, is_syn=False, client_az="az1")
        assert again.replica.name == first.replica.name

    def test_water_levels_view(self, sim):
        gateway, services = make_gateway(sim)
        levels = gateway.water_levels()
        assert len(levels) == len(gateway.all_backends)
        assert all(v == 0.0 for v in levels.values())

    def test_overloaded_backends_detection(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.set_service_load(sid, 10_000_000.0)
        assert gateway.overloaded_backends()


NAN, INF = math.nan, math.inf


class TestConfigValidation:
    """Bad sizing fails at construction, naming the field, instead of
    building a gateway that divides by zero or never alerts."""

    @pytest.mark.parametrize("field, value", [
        ("cores", 0), ("cores", -2), ("cores", NAN),
        ("request_cost_s", 0.0), ("request_cost_s", -1e-6),
        ("request_cost_s", NAN), ("request_cost_s", INF),
        ("request_cost_sigma", -1.0), ("request_cost_sigma", NAN),
        ("request_cost_sigma", INF),
        ("session_capacity", 0), ("session_capacity", -5),
    ])
    def test_replica_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"ReplicaConfig.{field} "):
            ReplicaConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("replicas_per_backend", 0),
        ("backends_per_service_per_az", 0),
        ("azs_per_service", 0),
        ("buckets_per_service", 0),
        ("redirector_max_chain", 0), ("redirector_max_chain", 1),
        ("safety_threshold", 0.0), ("safety_threshold", 1.5),
        ("safety_threshold", NAN), ("safety_threshold", -INF),
        ("tunnels_per_core", 0), ("tunnels_per_core", -1),
    ])
    def test_gateway_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"GatewayConfig.{field} "):
            GatewayConfig(**{field: value})

    def test_edge_values_accepted(self):
        ReplicaConfig(cores=1, request_cost_sigma=0.0, session_capacity=1)
        GatewayConfig(replicas_per_backend=1, redirector_max_chain=2,
                      safety_threshold=1.0, tunnels_per_core=1)
