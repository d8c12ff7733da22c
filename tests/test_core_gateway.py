"""Tests for the multi-tenant mesh gateway."""

import math

import pytest

from repro.core import (GatewayConfig, MeshGateway, NoBackendAvailable,
                        SessionAggregator)
from repro.core.replica import Replica, ReplicaConfig
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


def one_replica_gateway(sim, session_capacity=100_000):
    """One service on one backend of one replica; → (gateway, sid)."""
    config = GatewayConfig(
        replicas_per_backend=1, backends_per_service_per_az=1,
        azs_per_service=1,
        replica=ReplicaConfig(cores=1, request_cost_s=100e-6,
                              request_cost_sigma=0.0,
                              session_capacity=session_capacity))
    gateway = MeshGateway(sim, config)
    gateway.deploy_initial(["az1"], 1)
    tenant = gateway.registry.add_tenant("t1")
    service = gateway.registry.add_service(tenant, "web", "10.0.0.1")
    gateway.register_service(service)
    return gateway, service.service_id


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

    def test_underflowing_share_places_no_load(self, sim):
        # 5e-324 over four carriers rounds to a zero share per backend.
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        gateway.set_service_load(sid, 5e-324)
        for backend in gateway.all_backends:
            assert backend.service_rps(sid) == 0.0
            assert sid not in backend.top_services(
                len(backend.configured_services))
            assert backend.water_level() == 0.0

    def test_unregistered_service_load_rejected(self, sim):
        gateway, _services = make_gateway(sim)
        with pytest.raises(KeyError, match="service 999 is not registered"):
            gateway.set_service_load(999, 1_000.0)
        with pytest.raises(KeyError, match="service 999 is not registered"):
            gateway.set_service_sessions(999, 10)
        assert 999 not in gateway.service_rps
        assert 999 not in gateway.service_sessions

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
            sid, flow, is_syn=True, client_az="az1", route_cache={}))
        sim.run()
        result = process.value
        assert result.replica.requests_served == 1

    def test_requests_prefer_local_az(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        result = gateway.deliver(
            sid, FiveTuple("10.0.0.1", 1, "10.9.9.9", 443),
            is_syn=True, client_az="az2", route_cache={})
        assert result.replica.az == "az2"

    def test_flow_stickiness_through_gateway(self, sim):
        gateway, services = make_gateway(sim)
        sid = services[0].service_id
        flow = FiveTuple("10.0.0.1", 777, "10.9.9.9", 443)
        first = gateway.deliver(sid, flow, is_syn=True, client_az="az1",
                                route_cache={})
        again = gateway.deliver(sid, flow, is_syn=False, client_az="az1",
                                route_cache={})
        assert again.replica.name == first.replica.name

    def test_flow_refused_for_a_full_session_table_leaves_no_owner(self, sim):
        gateway, sid = one_replica_gateway(sim, session_capacity=1)
        first, second = (FiveTuple("10.0.0.1", port, "10.9.9.9", 443)
                         for port in (1001, 1002))
        served = sim.process(gateway.process_request(
            sid, first, is_syn=True, client_az="az1", route_cache={}))
        sim.run()
        replica = served.value.replica
        assert replica.sessions_used == 1
        with pytest.raises(NoBackendAvailable, match="session table"):
            next(gateway.process_request(
                sid, second, is_syn=True, client_az="az1", route_cache={}))
        assert gateway.service_lbs[(sid, "az1")].flows.owner(second) is None
        # Closing the refused flow frees nothing; the served one still
        # holds its entry until it closes.
        gateway.close_flow(sid, second)
        assert replica.sessions_used == 1
        gateway.close_flow(sid, first)
        assert replica.sessions_used == 0

    def test_flow_from_before_a_crash_frees_no_later_entry(self, sim):
        """A crash drops its replica's session entries: closing a flow
        it served before the crash must not free the entry of a flow
        served after recovery."""
        gateway, sid = one_replica_gateway(sim)
        (backend,) = gateway.service_backends[sid]
        first, second = (FiveTuple("10.0.0.1", port, "10.9.9.9", 443)
                         for port in (1001, 1002))
        served = sim.process(gateway.process_request(
            sid, first, is_syn=True, client_az="az1", route_cache={}))
        sim.run()
        replica = served.value.replica
        gateway.fail_backend(backend.name)
        assert replica.sessions_used == 0
        gateway.recover_backend(backend.name)
        sim.process(gateway.process_request(
            sid, second, is_syn=True, client_az="az1", route_cache={}))
        sim.run()
        assert replica.sessions_used == 1
        gateway.close_flow(sid, first)
        assert replica.sessions_used == 1
        gateway.close_flow(sid, second)
        assert replica.sessions_used == 0

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


class TestRouteCache:
    """A connection's cached route must equal an uncached LB delivery.

    Two gateways built from one seed take the same steps; one keeps
    each flow's route cache and the other passes a fresh one on every
    delivery, so every delivery of the second runs the full ECMP,
    bucket-chain and flow-table walk.
    """

    FLOWS = [FiveTuple("10.0.0.1", 40_000 + i, "10.9.9.9", 443)
             for i in range(32)]

    @staticmethod
    def _gateway():
        config = GatewayConfig(
            replicas_per_backend=2, backends_per_service_per_az=2,
            azs_per_service=1,
            replica=ReplicaConfig(cores=8, request_cost_s=100e-6,
                                  request_cost_sigma=0.0))
        gateway = MeshGateway(Simulator(5), config)
        gateway.deploy_initial(["az1"], 2)
        tenant = gateway.registry.add_tenant("t1")
        service = gateway.registry.add_service(tenant, "web", "10.0.0.1")
        gateway.register_service(service)
        return gateway, service.service_id

    @staticmethod
    def _lb(gateway, sid):
        return gateway.service_lbs[(sid, "az1")]

    @staticmethod
    def _cache(caches, index):
        """Flow ``index``'s route cache; ``caches=None`` means uncached."""
        return {} if caches is None else caches[index]

    def _deliver_all(self, gateway, sid, caches, is_syn=False):
        """Per flow: (replica, hops, new flow, delivered, redirected)."""
        seen = []
        for index, flow in enumerate(self.FLOWS):
            result = gateway.deliver(sid, flow, is_syn, "az1",
                                     route_cache=self._cache(caches, index))
            lb = self._lb(gateway, sid)
            seen.append((result.replica.name, result.redirection_hops,
                         result.is_new_flow, lb.packets_delivered,
                         lb.packets_redirected))
        return seen

    @staticmethod
    def _routes(seen):
        return [entry[:3] for entry in seen]

    def _step_add(self, gateway, sid, _caches):
        self._lb(gateway, sid).add_replica(
            Replica(gateway.sim, "extra", "az1", gateway.config.replica))

    def _step_drain(self, gateway, sid, _caches):
        lb = self._lb(gateway, sid)
        lb.drain_replica(lb.flows.owner(self.FLOWS[0]))

    def _step_retire(self, gateway, sid, _caches):
        self._lb(gateway, sid).retire_replica("extra")

    def _step_close(self, gateway, sid, _caches):
        gateway.close_flow(sid, self.FLOWS[1])

    def _step_syn(self, gateway, sid, caches):
        result = gateway.deliver(sid, self.FLOWS[2], True, "az1",
                                 route_cache=self._cache(caches, 2))
        assert result.is_new_flow

    def _step_extend(self, gateway, sid, _caches):
        gateway.extend_service(sid, gateway.deploy_backend("az1"))

    def _step_shrink(self, gateway, sid, _caches):
        gateway.shrink_service(sid, gateway.service_backends[sid][0])

    # extend/shrink rebuild the LB from the backends' replicas. After
    # the drain that would keep the drained replica alone in some fresh
    # chains, where a re-established flow finds no accepting replica,
    # so they run first.
    STEPS = ["extend", "shrink", "add", "drain", "retire", "close", "syn"]

    def test_every_lb_change_invalidates_the_cached_route(self):
        cached_gw, sid = self._gateway()
        plain_gw, plain_sid = self._gateway()
        caches = [{} for _ in self.FLOWS]
        plain = None
        assert (self._deliver_all(cached_gw, sid, caches, is_syn=True)
                == self._deliver_all(plain_gw, plain_sid, plain,
                                     is_syn=True))
        before = self._deliver_all(cached_gw, sid, caches)
        assert before == self._deliver_all(plain_gw, plain_sid, plain)
        for name in self.STEPS:
            step = getattr(self, f"_step_{name}")
            step(cached_gw, sid, caches)
            step(plain_gw, plain_sid, plain)
            # The first delivery after the change must see it; the
            # second reuses whatever the first cached.
            first, second = (
                self._deliver_all(cached_gw, sid, caches) for _ in "12")
            assert first == self._deliver_all(plain_gw, plain_sid, plain)
            assert second == self._deliver_all(plain_gw, plain_sid, plain)
            assert self._routes(first) != self._routes(before), (
                f"step {name!r} changed no flow's route")
            before = second

    def test_established_flow_reuses_its_route(self):
        gateway, sid = self._gateway()
        flow, cache = self.FLOWS[0], {}
        gateway.deliver(sid, flow, True, "az1", route_cache=cache)
        first = gateway.deliver(sid, flow, False, "az1", route_cache=cache)
        lb = self._lb(gateway, sid)
        assert cache["route"] == (lb, lb.epoch, first)
        # Another flow's SYN installs a flow but moves no established one.
        gateway.deliver(sid, self.FLOWS[1], True, "az1", route_cache={})
        again = gateway.deliver(sid, flow, False, "az1", route_cache=cache)
        assert again is first
        assert lb.packets_delivered == 4
        # Its own SYN drops the route: the flow may land elsewhere now.
        gateway.deliver(sid, flow, True, "az1", route_cache=cache)
        assert "route" not in cache


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
        # The gateway's §4.4 tunnel count is set on the router-side
        # SessionAggregator; every other field is GatewayConfig's.
        owner = (SessionAggregator if field == "tunnels_per_core"
                 else GatewayConfig)
        with pytest.raises(ValueError, match=f"{owner.__name__}.{field} "):
            owner(**{field: value})

    def test_edge_values_accepted(self):
        ReplicaConfig(cores=1, request_cost_sigma=0.0, session_capacity=1)
        GatewayConfig(replicas_per_backend=1, redirector_max_chain=2,
                      safety_threshold=1.0)
        SessionAggregator(tunnels_per_core=1)
