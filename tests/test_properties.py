"""Property-based tests (hypothesis) on core data structures/invariants."""

import itertools
import math
import random
from operator import attrgetter

from hypothesis import assume, given, settings, strategies as st

from repro.core import (BucketTable, DisaggregatedLB, GatewayConfig, Replica,
                        ShardingError, place_shard, shard_stats)
from repro.core.backend import Backend
from repro.core.healthcheck import HealthCheckPlan, ServicePlacement
from repro.core.replica import ReplicaConfig
from repro.fleet import FleetConfig, FleetTopology
from repro.kernel import NagleConfig, batch_factor
from repro.netsim import Cidr, EcmpRouter, FiveTuple, int_to_ip, ip_to_int
from repro.simcore import Simulator, percentile
from repro.simcore.rng import lognormal_from_median

ip_ints = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports = st.integers(min_value=0, max_value=65535)


@st.composite
def five_tuples(draw):
    return FiveTuple(int_to_ip(draw(ip_ints)), draw(ports),
                     int_to_ip(draw(ip_ints)), draw(ports))


class TestAddressingProperties:
    @given(ip_ints)
    def test_ip_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @given(st.integers(min_value=0, max_value=28), ip_ints)
    def test_cidr_contains_its_hosts_sampled(self, prefix, base):
        network = base & (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
        cidr = Cidr(int_to_ip(network), prefix)
        # Check boundary members rather than iterating huge blocks.
        assert cidr.contains(int_to_ip(network))
        assert cidr.contains(int_to_ip(network + cidr.size - 1))


class TestFlowHashProperties:
    @given(five_tuples())
    def test_hash_stable(self, flow):
        assert flow.flow_hash(7) == flow.flow_hash(7)

    @given(five_tuples(), st.integers(min_value=1, max_value=16))
    def test_ecmp_selection_in_range(self, flow, hops):
        router = EcmpRouter(list(range(hops)))
        assert router.select(flow) in range(hops)


class TestPercentileProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200),
           st.floats(min_value=0, max_value=100))
    def test_percentile_within_range(self, values, p):
        result = percentile(values, p)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=100))
    def test_percentile_monotone_in_p(self, values):
        assert percentile(values, 25) <= percentile(values, 75)


class TestNagleProperties:
    @given(st.integers(min_value=1, max_value=10_000),
           st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_batch_factor_at_least_one(self, size, rate):
        assert batch_factor(size, rate, NagleConfig()) >= 1.0

    @given(st.integers(min_value=1461, max_value=100_000),
           st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_oversized_messages_never_aggregate(self, size, rate):
        assert batch_factor(size, rate, NagleConfig()) == 1.0


class TestBucketTableProperties:
    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                    min_size=1, max_size=5, unique=True),
           st.integers(min_value=1, max_value=64),
           five_tuples())
    def test_every_bucket_reachable_and_headed(self, replicas, buckets,
                                               flow):
        table = BucketTable(1, num_buckets=buckets)
        table.build(replicas)
        chain = table.chain_for(flow)
        assert chain
        assert chain[0] in replicas

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=4))
    def test_chain_length_never_exceeds_max(self, replicas, max_chain):
        table = BucketTable(1, num_buckets=16, max_chain=max_chain)
        names = [f"r{i}" for i in range(replicas)]
        table.build(names)
        # Repeatedly drain and replace: the cap must always hold.
        for round_index in range(10):
            victim = names[round_index % replicas]
            replacement = names[(round_index + 1) % replicas]
            table.prepare_offline(victim, [replacement])
            assert table.max_chain_length() <= max_chain


class TestRedirectorProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=5))
    def test_established_flows_sticky_across_one_drain(self, seed,
                                                       replica_count):
        sim = Simulator(seed)
        replicas = [Replica(sim, f"ip{i}", "az1", ReplicaConfig())
                    for i in range(replica_count)]
        lb = DisaggregatedLB(service_id=seed % 100, replicas=replicas)
        rng = random.Random(seed)
        flows = [FiveTuple(int_to_ip(rng.randrange(2 ** 32)),
                           rng.randrange(65536), "10.9.9.9", 443)
                 for _ in range(30)]
        owners = {f: lb.deliver(f, is_syn=True).replica.name for f in flows}
        victim = f"ip{rng.randrange(replica_count)}"
        lb.drain_replica(victim)
        for flow in flows:
            assert lb.deliver(flow, is_syn=False).replica.name == owners[flow]
        for _ in range(20):
            fresh = FiveTuple(int_to_ip(rng.randrange(2 ** 32)),
                              rng.randrange(65536), "10.9.9.9", 443)
            assert lb.deliver(fresh, is_syn=True).replica.name != victim


def all_pairs_stats(shards):
    """Brute-force isolation statistics by all-pairs set intersection,
    the reference ``shard_stats``'s co-occurrence counting must match:
    (fully overlapping pairs, max pairwise overlap, min survivors)."""
    sets = [set(shard) for shard in shards]
    pairs = list(itertools.combinations(sets, 2))
    full = sum(1 for a, b in pairs if a == b)
    worst = max((len(a & b) for a, b in pairs), default=0)
    # Backends each other service keeps when one service's whole
    # combination fails.
    survivors = min(len(other - doomed)
                    for i, doomed in enumerate(sets)
                    for j, other in enumerate(sets) if i != j)
    return full, worst, survivors


@st.composite
def fleet_shapes(draw):
    """(azs, backends/AZ, services, backends/service/AZ, AZs/service)."""
    azs = draw(st.integers(min_value=1, max_value=4))
    backends_per_az = draw(st.integers(min_value=2, max_value=8))
    return (azs, backends_per_az, draw(st.integers(min_value=2, max_value=40)),
            draw(st.integers(min_value=1, max_value=min(3, backends_per_az))),
            draw(st.integers(min_value=1, max_value=azs)))


class TestShuffleShardingProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=4, max_value=10),
           st.integers(min_value=2, max_value=12))
    def test_no_two_services_share_combination(self, seed, per_az,
                                               service_count):
        sim = Simulator(seed)
        rng = random.Random(seed)
        pools = [[Backend(sim, f"{az}-b{i}", az) for i in range(per_az)]
                 for az in ("az1", "az2")]
        import math
        capacity = math.comb(per_az, 2) ** 2
        used = set()
        shards = [place_shard(rng, pools, (0, 0), 2, 2, used)
                  for _ in range(min(service_count, capacity))]
        stats = shard_stats(shards, attrgetter("az"))
        assert stats.fully_overlapping_pairs == 0
        assert stats.min_survivor_backends >= 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), fleet_shapes(),
           st.integers(min_value=0, max_value=30))
    def test_shard_stats_matches_all_pairs_reference(self, seed, shape,
                                                     extensions):
        azs, backends_per_az, services, per_az, azs_per_service = shape
        config = FleetConfig(
            azs=azs, backends_per_az=backends_per_az, services=services,
            gateway=GatewayConfig(backends_per_service_per_az=per_az,
                                  azs_per_service=azs_per_service))
        rng = random.Random(seed)
        try:
            topology = FleetTopology(config, rng)
        except ShardingError:
            assume(False)
        # Grow some shards (the scaler's Reuse/New) so sizes differ.
        for _ in range(extensions):
            service = rng.randrange(services)
            spare = [b for b in range(topology.n_backends)
                     if b not in topology.shards[service]]
            if spare:
                topology.extend_shard(service, rng.choice(spare))
        stats = shard_stats(topology.shards, topology.az_of.__getitem__)
        assert (stats.fully_overlapping_pairs, stats.max_pairwise_overlap,
                stats.min_survivor_backends) \
            == all_pairs_stats(topology.shards)


class TestBackendProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=50_000,
                              allow_nan=False),
                    min_size=1, max_size=8),
           st.integers(min_value=1, max_value=4))
    def test_load_conservation_across_replicas(self, loads, replica_count):
        sim = Simulator(0)
        backend = Backend(sim, "b", "az1", replicas=replica_count)
        for service_id, rps in enumerate(loads):
            backend.install_service(service_id)
            backend.offer_load(service_id, rps)
        carried = sum(backend.service_rps(service_id)
                      for service_id in range(len(loads)))
        assert carried == sum(rps for rps in loads if rps > 0)
        # Each of the replicas carries 1/replica_count of it.
        assert math.isclose(backend.water_level(),
                            min(1.0, carried / backend.capacity_rps()),
                            rel_tol=1e-12)


class TestHealthCheckProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=16))
    def test_stage_monotonicity(self, services, replicas, cores):
        placements = [ServicePlacement(
            service_id=i,
            backend_names=tuple(f"b{j}" for j in range((i % 3) + 1)),
            app_endpoints=frozenset(f"a{k}" for k in range(i, i + 3)))
            for i in range(services)]
        plan = HealthCheckPlan(placements, replicas_per_backend=replicas,
                               cores_per_replica=cores)
        stages = plan.reduction()
        assert stages.base >= stages.service_level
        assert stages.service_level >= stages.core_level
        assert stages.core_level >= stages.replica_level
        assert stages.replica_level > 0


class TestLognormalProperties:
    @given(st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
           st.floats(min_value=0.01, max_value=2.0))
    def test_sample_positive(self, median, sigma):
        rng = random.Random(1)
        assert lognormal_from_median(rng, median, sigma) > 0


class TestEconomicsProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=2000),
           st.floats(min_value=1_000, max_value=300_000),
           st.floats(min_value=10_000, max_value=2_000_000))
    def test_savings_ordering(self, services, rps, sessions):
        """Both mechanisms combined never save less than either alone,
        and savings stay within (0, 1)."""
        from repro.core import RegionDemand, cost_reduction
        demand = RegionDemand(services=services, rps_per_service=rps,
                              sessions_per_service=sessions)
        redirector = cost_reduction(demand, redirector=True,
                                    tunneling=False)
        tunneling = cost_reduction(demand, redirector=False, tunneling=True)
        both = cost_reduction(demand, redirector=True, tunneling=True)
        assert 0.0 <= both < 1.0
        assert both >= redirector - 1e-9
        assert both >= tunneling - 1e-9


class TestDnsResolverProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["az1", "az2", "az3"]),
                              st.booleans()),
                    min_size=1, max_size=12),
           st.sampled_from(["az1", "az2", "az3"]))
    def test_local_preference_and_health(self, records, client_az):
        """Resolution always returns a healthy record, and a local one
        whenever any healthy local record exists."""
        import random as _random
        from repro.netsim import AzAwareResolver, ResolutionError
        resolver = AzAwareResolver(rng=_random.Random(0))
        for index, (az, healthy) in enumerate(records):
            resolver.register("svc", f"addr-{index}", az)
            resolver.set_health("svc", f"addr-{index}", healthy)
        healthy_azs = {az for az, ok in records if ok}
        if not healthy_azs:
            try:
                resolver.resolve("svc", client_az)
                assert False, "should have raised"
            except ResolutionError:
                return
        record = resolver.resolve("svc", client_az)
        assert record.healthy
        if client_az in healthy_azs:
            assert record.az == client_az
