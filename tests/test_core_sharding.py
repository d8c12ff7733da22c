"""Tests for shuffle sharding."""

import random
from operator import attrgetter

import pytest

from repro.core import (
    Backend,
    GatewayConfig,
    MeshGateway,
    ShardingError,
    place_shard,
    shard_stats,
)
from repro.fleet import FleetConfig, FleetTopology
from repro.simcore import Simulator


def make_pools(sim, azs=2, per_az=6):
    pools = []
    counter = 0
    for az_index in range(azs):
        az = f"az{az_index + 1}"
        pools.append([])
        for _ in range(per_az):
            counter += 1
            pools[-1].append(Backend(sim, f"b{counter}", az))
    return pools


def live_load(pools):
    return [sum(len(b.configured_services) for b in pool) for pool in pools]


def place_services(rng, pools, count, per_az=2, azs_per_service=2):
    """Place ``count`` services the way the gateway does, installing
    each so the next placement sees the live AZ load."""
    used = set()
    shards = []
    for service_id in range(count):
        shard = place_shard(rng, pools, live_load(pools), per_az,
                            azs_per_service, used)
        for backend in shard:
            backend.install_service(service_id)
        shards.append(shard)
    return shards


@pytest.fixture
def sim():
    return Simulator(0)


class TestShuffleSharder:
    """``place_shard`` and ``shard_stats``, the one placement and the
    one isolation count both tiers use."""

    def test_assigns_requested_shape(self, sim):
        backends = place_shard(random.Random(0), make_pools(sim), [0, 0],
                               per_az=2, azs_per_service=2, used=set())
        assert len(backends) == 4
        assert len({b.az for b in backends}) == 2

    def test_combinations_are_unique(self, sim):
        pools = make_pools(sim, azs=2, per_az=8)
        shards = place_services(random.Random(0), pools, 20)
        assert shard_stats(shards, attrgetter("az")) \
            .fully_overlapping_pairs == 0

    def test_duplicate_assignment_rejected(self, sim):
        """Service ids live in the gateway now: a second registration
        of one service is refused there."""
        gateway = MeshGateway(sim)
        gateway.deploy_initial(["az1", "az2"], 6)
        tenant = gateway.registry.add_tenant("t")
        service = gateway.registry.add_service(tenant, "s0", "10.0.1.1")
        gateway.register_service(service)
        with pytest.raises(ValueError, match="already registered"):
            gateway.register_service(service)

    def test_survivors_guarantee(self, sim):
        """If one service's whole combination dies, every other service
        keeps at least one backend — the isolation property of Fig 19."""
        shards = place_services(random.Random(1),
                                make_pools(sim, azs=3, per_az=6), 15)
        assert shard_stats(shards, attrgetter("az")) \
            .min_survivor_backends >= 1

    def test_too_few_azs_raises(self, sim):
        with pytest.raises(ShardingError, match="need 3 AZs, have 2"):
            place_shard(random.Random(0), make_pools(sim, azs=2), [0, 0],
                        per_az=2, azs_per_service=3, used=set())

    def test_too_few_backends_raises(self, sim):
        with pytest.raises(ShardingError, match="has 2 backends, need 4"):
            place_shard(random.Random(0), make_pools(sim, azs=1, per_az=2),
                        [0], per_az=4, azs_per_service=1, used=set())

    def test_exhaustion_raises_sharding_error(self, sim):
        # C(2,2) = 1 combination per AZ; the second service cannot get
        # a unique one.
        pools = make_pools(sim, azs=1, per_az=2)
        used = set()
        place_shard(random.Random(0), pools, [0], 2, 1, used)
        with pytest.raises(ShardingError, match="add backends"):
            place_shard(random.Random(0), pools, [0], 2, 1, used)

    def test_az_spread_prefers_lighter_azs(self, sim):
        pools = make_pools(sim, azs=2, per_az=4)
        # Preload az1 with configured services.
        for backend in pools[0]:
            backend.install_service(999)
        backends = place_shard(random.Random(0), pools, live_load(pools),
                               per_az=2, azs_per_service=1, used=set())
        assert all(b.az == "az2" for b in backends)

    def test_invalid_parameters(self):
        """The placement has no checks of its own: both tiers' configs
        reject a shape with no backend or no AZ per service."""
        with pytest.raises(ValueError):
            GatewayConfig(backends_per_service_per_az=0)
        with pytest.raises(ValueError):
            GatewayConfig(azs_per_service=0)


class TestOnePlacementAcrossTiers:
    """A testbed gateway and a fleet topology at one seed and pool shape
    choose the same combinations, draw for draw: the gateway's live
    configured-service load and the fleet's per-service counter agree."""

    @pytest.mark.parametrize("azs,backends_per_az,services,seed", [
        (2, 6, 30, 0),
        (3, 6, 20, 43),
        (3, 8, 60, 7),
        (4, 5, 40, 11),
    ])
    def test_gateway_and_fleet_name_the_same_combinations(
            self, azs, backends_per_az, services, seed):
        gateway = MeshGateway(Simulator(seed), GatewayConfig())
        gateway.deploy_initial([f"az{i + 1}" for i in range(azs)],
                               backends_per_az)
        tenant = gateway.registry.add_tenant("t")
        placed = []
        for index in range(services):
            service = gateway.registry.add_service(
                tenant, f"s{index}", f"10.0.1.{index + 1}")
            placed.append(gateway.register_service(service))
        # Both tiers number a backend by (AZ index, position in its pool).
        slot = {backend: (az, position)
                for az, pool in enumerate(gateway.backends_by_az.values())
                for position, backend in enumerate(pool)}
        topology = FleetTopology(
            FleetConfig(azs=azs, backends_per_az=backends_per_az,
                        services=services),
            Simulator(seed).rng)
        fleet_slot = {backend: (az, position)
                      for az in range(azs)
                      for position, backend in enumerate(
                          topology.backends_in_az(az))}
        assert [[slot[b] for b in shard] for shard in placed] \
            == [[fleet_slot[b] for b in shard] for shard in topology.shards]
