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


class TestReplica:
    def test_fluid_water_level(self, sim):
        replica = Replica(sim, "r1", "az1",
                          ReplicaConfig(cores=8, request_cost_s=100e-6))
        replica.set_service_rps(1, 40_000.0)
        assert replica.water_level() == pytest.approx(0.5)

    def test_water_level_clamped(self, sim):
        replica = Replica(sim, "r1", "az1",
                          ReplicaConfig(cores=1, request_cost_s=1e-3))
        replica.set_service_rps(1, 10_000.0)
        assert replica.water_level() == 1.0

    def test_weighted_rps(self, sim):
        replica = Replica(sim, "r1", "az1")
        replica.set_service_rps(1, 100.0, weight=3.0)
        assert replica.offered_rps == pytest.approx(300.0)

    def test_zero_rps_clears_entry(self, sim):
        replica = Replica(sim, "r1", "az1")
        replica.set_service_rps(1, 100.0)
        replica.set_service_rps(1, 0.0)
        assert 1 not in replica.assigned_rps

    def test_top_services_ranked(self, sim):
        replica = Replica(sim, "r1", "az1")
        replica.set_service_rps(1, 100.0)
        replica.set_service_rps(2, 900.0)
        replica.set_service_rps(3, 500.0)
        top = list(replica.top_services(2))
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
        replica = Replica(sim, "r1", "az1",
                          ReplicaConfig(cores=8, request_cost_s=100e-6,
                                        session_capacity=100_000))
        replica.set_service_rps(1, 16_000.0)       # 20 % CPU
        replica.add_sessions(90_000)               # 90 % sessions
        assert replica.water_level() == pytest.approx(0.2)
        assert replica.session_utilization() == pytest.approx(0.9)

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
        waters = [r.water_level() for r in backend.replicas]
        assert waters[0] == pytest.approx(waters[1])
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
        before = backend.replicas[0].water_level()
        backend.fail_replica("b1-r2")
        after = backend.replicas[0].water_level()
        assert after == pytest.approx(2 * before)
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
        backend.fail_replica("b1-r1")
        backend.recover_replica("b1-r1")
        waters = [r.water_level() for r in backend.replicas]
        assert waters[0] == pytest.approx(waters[1])

    def test_add_replica_lowers_per_replica_load(self, sim):
        backend = self._backend(sim)
        backend.install_service(1)
        backend.offer_load(1, 80_000.0)
        before = backend.replicas[0].water_level()
        backend.add_replica()
        after = backend.replicas[0].water_level()
        assert after < before

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


class TestReplicaRpsValidation:
    @pytest.mark.parametrize("rps", NON_FINITE)
    def test_set_service_rps_rejects_non_finite(self, sim, rps):
        replica = Replica(sim, "r1", "az1")
        with pytest.raises(ValueError, match="rps"):
            replica.set_service_rps(1, rps)
        assert replica.assigned_rps == {}


#: Operations the in-place load property applies, each as
#: (name, service id, rps, weight); offers are drawn three times as
#: often, so updates of a service that is not the newest are common.
LOAD_OPS = ("offer", "offer", "offer", "remove", "fail", "recover",
            "add_replica")


def assigned_after_full_respread(backend):
    """Each replica's (service, rps) pairs, in key order, as a full
    ``_redistribute()`` leaves them (run on the live backend: it is
    idempotent, so the next operation starts from the same state)."""
    backend._redistribute()
    return [list(r.assigned_rps.items()) for r in backend.replicas]


class TestInPlaceLoad:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4),
           st.lists(st.tuples(st.sampled_from(LOAD_OPS),
                              st.integers(0, 3),
                              st.floats(0, 1e6),
                              st.sampled_from([1.0, 0.5, 3.0])),
                    max_size=40))
    def test_matches_full_respread(self, replicas, ops):
        backend = Backend(Simulator(0), "b", "az1", replicas=replicas)
        for op, service_id, rps, weight in ops:
            names = [r.name for r in backend.replicas]
            if op == "offer":
                backend.install_service(service_id)
                backend.offer_load(service_id, rps, weight)
            elif op == "remove":
                backend.remove_service(service_id)
            elif op == "fail":
                backend.fail_replica(names[service_id % len(names)])
            elif op == "recover":
                backend.recover_replica(names[service_id % len(names)])
            else:
                backend.add_replica()
            in_place = [list(r.assigned_rps.items())
                        for r in backend.replicas]
            offered = [r.offered_rps for r in backend.replicas]
            assert in_place == assigned_after_full_respread(backend), op
            assert offered == [r.offered_rps for r in backend.replicas]
