"""Tests for tenants/services, replicas, and backends."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Backend, Replica, ReplicaConfig, TenantRegistry
from repro.simcore import Simulator

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture
def sim():
    return Simulator(0)


class TestTenantRegistry:
    def test_add_tenant_assigns_vni(self):
        registry = TenantRegistry()
        t1 = registry.add_tenant("t1")
        t2 = registry.add_tenant("t2")
        assert t1.vni != t2.vni

    def test_duplicate_tenant_rejected(self):
        registry = TenantRegistry()
        registry.add_tenant("t1")
        with pytest.raises(ValueError):
            registry.add_tenant("t1")

    def test_overlapping_vpc_ips_allowed_across_tenants(self):
        registry = TenantRegistry()
        t1 = registry.add_tenant("t1")
        t2 = registry.add_tenant("t2")
        s1 = registry.add_service(t1, "web", "10.0.0.5")
        s2 = registry.add_service(t2, "web", "10.0.0.5")
        assert s1.service_id != s2.service_id

    def test_https_weight_is_3x(self):
        """§6.3: HTTPS requests consume ~3x the resources."""
        registry = TenantRegistry()
        tenant = registry.add_tenant("t1")
        http = registry.add_service(tenant, "a", "10.0.0.1", https=False)
        https = registry.add_service(tenant, "b", "10.0.0.2", https=True)
        assert https.request_weight == 3 * http.request_weight

    def test_service_lookup_by_name(self):
        registry = TenantRegistry()
        tenant = registry.add_tenant("t1")
        service = registry.add_service(tenant, "web", "10.0.0.5")
        assert registry.service_by_name("t1", "web") is service
        with pytest.raises(KeyError):
            registry.service_by_name("t1", "ghost")

    def test_services_of_tenant(self):
        registry = TenantRegistry()
        t1 = registry.add_tenant("t1")
        t2 = registry.add_tenant("t2")
        registry.add_service(t1, "a", "10.0.0.1")
        registry.add_service(t2, "b", "10.0.0.1")
        assert len(registry.services_of("t1")) == 1


def one_replica_backend(sim, services=(1,), **config):
    """A backend of one replica VM hosting ``services``: the replica's
    fluid-mode numbers, which its backend owns."""
    backend = Backend(sim, "b1", "az1", replicas=1,
                      replica_config=ReplicaConfig(**config))
    for service_id in services:
        backend.install_service(service_id)
    return backend


class TestReplica:
    """One VM. Its fluid-mode load lives on its backend, so the fluid
    cases run on a one-replica backend."""

    def test_fluid_water_level(self, sim):
        backend = one_replica_backend(sim, cores=8, request_cost_s=100e-6)
        backend.offer_load(1, 40_000.0)
        assert backend.water_level() == pytest.approx(0.5)

    def test_water_level_clamped(self, sim):
        backend = one_replica_backend(sim, cores=1, request_cost_s=1e-3)
        backend.offer_load(1, 10_000.0)
        assert backend.water_level() == 1.0

    def test_weighted_rps(self, sim):
        backend = one_replica_backend(sim, cores=8, request_cost_s=100e-6)
        backend.offer_load(1, 100.0, weight=3.0)
        assert backend.water_level() == pytest.approx(300.0 / 80_000.0)

    def test_zero_rps_clears_entry(self, sim):
        backend = one_replica_backend(sim)
        backend.offer_load(1, 100.0)
        backend.offer_load(1, 0.0)
        assert backend.service_rps(1) == 0.0
        assert backend.top_services() == {}
        assert backend.water_level() == 0.0

    def test_top_services_ranked(self, sim):
        backend = one_replica_backend(sim, services=(1, 2, 3))
        backend.offer_load(1, 100.0)
        backend.offer_load(2, 900.0)
        backend.offer_load(3, 500.0)
        top = list(backend.top_services(2))
        assert top == [2, 3]

    def test_session_table_bounded(self, sim):
        replica = Replica(sim, "r1", "az1",
                          ReplicaConfig(session_capacity=100))
        assert replica.add_sessions(90)
        assert not replica.add_sessions(20)
        assert replica.session_utilization() == pytest.approx(0.9)

    def test_negative_session_removal_rejected(self, sim):
        replica = Replica(sim, "r1", "az1",
                          ReplicaConfig(session_capacity=100))
        assert replica.add_sessions(100)
        with pytest.raises(ValueError, match="negative session count -5"):
            replica.remove_sessions(-5)
        assert replica.sessions_used == 100

    def test_session_over_free_after_a_crash_raises(self, sim):
        replica = Replica(sim, "r1", "az1",
                          ReplicaConfig(session_capacity=100))
        replica.add_sessions(3)
        assert replica.fail() == 3
        with pytest.raises(ValueError, match="frees 1 sessions but holds 0"):
            replica.remove_sessions(1)  # a flow the crash already dropped
        assert replica.sessions_used == 0

    def test_session_imbalance_premise(self, sim):
        """§3.2 Issue #4: sessions exhaust while CPU sits near 20 %."""
        backend = one_replica_backend(sim, cores=8, request_cost_s=100e-6,
                                      session_capacity=100_000)
        backend.offer_load(1, 16_000.0)            # 20 % CPU
        backend.offer_sessions(1, 90_000)          # 90 % sessions
        assert backend.water_level() == pytest.approx(0.2)
        assert backend.replicas[0].session_utilization() \
            == pytest.approx(0.9)

    def test_des_request_processing(self, sim):
        config = ReplicaConfig(cores=1, request_cost_s=1e-3,
                               request_cost_sigma=0.0)
        replica = Replica(sim, "r1", "az1", config)
        sim.process(replica.process_request())
        sim.run()
        assert sim.now == pytest.approx(1e-3)
        assert replica.requests_served == 1

    def test_https_weight_in_des(self, sim):
        config = ReplicaConfig(cores=1, request_cost_s=1e-3,
                               request_cost_sigma=0.0)
        replica = Replica(sim, "r1", "az1", config)
        sim.process(replica.process_request(weight=3.0))
        sim.run()
        assert sim.now == pytest.approx(3e-3)


class TestBackend:
    def _backend(self, sim, replicas=2):
        return Backend(sim, "b1", "az1", replicas=replicas,
                       replica_config=ReplicaConfig(cores=8,
                                                    request_cost_s=100e-6))

    def test_needs_replicas(self, sim):
        with pytest.raises(ValueError):
            Backend(sim, "b", "az1", replicas=0)

    def test_load_spread_over_replicas(self, sim):
        backend = self._backend(sim)
        backend.install_service(1)
        backend.offer_load(1, 80_000.0)
        assert backend.water_level() == pytest.approx(0.5)

    def test_offer_load_requires_configuration(self, sim):
        backend = self._backend(sim)
        with pytest.raises(KeyError):
            backend.offer_load(99, 100.0)

    def test_replica_failure_redistributes(self, sim):
        """Hierarchical recovery level 1: surviving replicas absorb."""
        backend = self._backend(sim)
        backend.install_service(1)
        backend.offer_load(1, 40_000.0)
        before = backend.water_level()
        backend.fail_replica("b1-r2")
        assert backend.water_level() == 2 * before
        assert backend.is_healthy

    def test_all_replicas_down_means_backend_down(self, sim):
        backend = self._backend(sim)
        backend.fail_all()
        assert not backend.is_healthy
        assert backend.water_level() == 0.0

    def test_recovery_restores_distribution(self, sim):
        backend = self._backend(sim)
        backend.install_service(1)
        backend.offer_load(1, 40_000.0)
        before = backend.water_level()
        backend.fail_replica("b1-r1")
        backend.recover_replica("b1-r1")
        assert backend.water_level() == before

    def test_top_services(self, sim):
        backend = self._backend(sim)
        for service_id, rps in ((1, 100.0), (2, 500.0), (3, 50.0)):
            backend.install_service(service_id)
            backend.offer_load(service_id, rps)
        assert list(backend.top_services(1)) == [2]

    def test_remove_service_clears_load(self, sim):
        backend = self._backend(sim)
        backend.install_service(1)
        backend.offer_load(1, 10_000.0)
        backend.remove_service(1)
        assert backend.water_level() == 0.0
        assert not backend.hosts_service(1)

    def test_draining_replica_not_accepting(self, sim):
        backend = self._backend(sim)
        backend.replicas[0].draining = True
        assert len(backend.accepting_replicas()) == 1
        assert len(backend.healthy_replicas()) == 2

    def test_pick_replica_skips_draining(self, sim):
        backend = self._backend(sim)
        backend.replicas[0].draining = True
        for flow_hash in range(10):
            assert backend.pick_replica(flow_hash).name == "b1-r2"

    def test_pick_replica_none_when_empty(self, sim):
        backend = self._backend(sim)
        backend.fail_all()
        assert backend.pick_replica(0) is None

    def test_remove_service_drops_its_sessions(self, sim):
        backend = self._backend(sim)
        for service_id, sessions in ((1, 100), (2, 50)):
            backend.install_service(service_id)
            backend.offer_sessions(service_id, sessions)
        backend.remove_service(1)
        assert backend.service_sessions(1) == 0
        assert backend.top_services_by_sessions() == {2: 50}
        assert [r.sessions_used for r in backend.replicas] == [25, 25]

    @pytest.mark.parametrize("rps", NON_FINITE)
    def test_offer_load_rejects_non_finite_rps(self, sim, rps):
        backend = self._backend(sim)
        backend.install_service(1)
        with pytest.raises(ValueError, match="rps"):
            backend.offer_load(1, rps)
        assert backend.service_rps(1) == 0.0
        assert backend.water_level() == 0.0


#: Operations the water-level property applies, each as (name, index,
#: rps, weight); offers are drawn three times as often, so updates of a
#: service that is not the newest are common. ``crash`` and ``restart``
#: flip a replica's health below the backend's API, as the rolling
#: upgrade does.
LOAD_OPS = ("offer", "offer", "offer", "remove", "fail", "recover",
            "crash", "restart")


def uncached_water(backend, offered):
    """The water level folded from scratch: ``offered`` maps each
    loaded service to its (rps, weight), in the order the services were
    first offered since they were last removed."""
    healthy = [r for r in backend.replicas if r.healthy]
    if not healthy:
        return 0.0
    config = backend.replica_config
    carried = sum(rps / len(healthy) * weight
                  for rps, weight in offered.values())
    return min(1.0, carried / (config.cores / config.request_cost_s))


class TestWaterLevel:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4),
           st.lists(st.tuples(st.sampled_from(LOAD_OPS),
                              st.integers(0, 3),
                              st.floats(0, 1e5),
                              st.sampled_from([1.0, 0.5, 3.0])),
                    max_size=40))
    def test_cached_level_matches_uncached_fold(self, replicas, ops):
        # One replica's capacity is ~69.6k rps: levels land on both
        # sides of the clamp.
        backend = Backend(Simulator(0), "b", "az1", replicas=replicas)
        offered = {}
        for op, index, rps, weight in ops:
            replica = backend.replicas[index % replicas]
            if op == "offer":
                backend.install_service(index)
                backend.offer_load(index, rps, weight)
                if rps > 0:
                    offered[index] = (rps, weight)
                else:
                    offered.pop(index, None)
            elif op == "remove":
                backend.remove_service(index)
                offered.pop(index, None)
            elif op == "fail":
                backend.fail_replica(replica.name)
            elif op == "recover":
                backend.recover_replica(replica.name)
            elif op == "crash":
                replica.fail()
            else:
                replica.recover()
            assert backend.water_level() == uncached_water(backend,
                                                           offered), op
