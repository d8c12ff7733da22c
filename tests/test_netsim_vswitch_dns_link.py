"""Tests for the vSwitch service-ID mapping, AZ-aware DNS, and links."""

import random

import pytest

from repro.netsim import (
    AzAwareResolver,
    Link,
    ResolutionError,
    ServiceIdMapper,
)
from repro.simcore import Simulator


class TestServiceIdMapper:
    def test_register_assigns_unique_ids(self):
        mapper = ServiceIdMapper()
        a = mapper.register(100, "10.0.0.5")
        b = mapper.register(101, "10.0.0.5")
        assert a != b

    def test_register_idempotent(self):
        mapper = ServiceIdMapper()
        assert mapper.register(100, "10.0.0.5") == mapper.register(
            100, "10.0.0.5")

    def test_overlapping_addresses_disambiguated_by_vni(self):
        """Two tenants, identical inner address → distinct service IDs."""
        mapper = ServiceIdMapper()
        tenant1 = mapper.register(100, "10.0.0.5", "t1/svc")
        tenant2 = mapper.register(200, "10.0.0.5", "t2/svc")
        assert tenant1 != tenant2
        assert mapper.name_of(tenant1) == "t1/svc"

    def test_lookup_unknown_is_none(self):
        assert ServiceIdMapper().lookup(1, "1.1.1.1") is None


class TestAzAwareResolver:
    def _resolver(self):
        resolver = AzAwareResolver(rng=random.Random(0))
        resolver.register("svc", "vip-az1", "az1")
        resolver.register("svc", "vip-az2", "az2")
        return resolver

    def test_prefers_local_az(self):
        resolver = self._resolver()
        for _ in range(20):
            assert resolver.resolve("svc", "az1").address == "vip-az1"

    def test_falls_back_cross_az_when_local_down(self):
        """§4.2: only if all local-AZ backends are unavailable do
        requests resolve to other AZs."""
        resolver = self._resolver()
        resolver.set_health("svc", "vip-az1", False)
        assert resolver.resolve("svc", "az1").address == "vip-az2"

    def test_all_down_raises(self):
        resolver = self._resolver()
        resolver.set_health("svc", "vip-az1", False)
        resolver.set_health("svc", "vip-az2", False)
        with pytest.raises(ResolutionError):
            resolver.resolve("svc", "az1")

    def test_recovery_restores_local_preference(self):
        resolver = self._resolver()
        resolver.set_health("svc", "vip-az1", False)
        resolver.set_health("svc", "vip-az1", True)
        assert resolver.resolve("svc", "az1").address == "vip-az1"

    def test_unknown_health_target_raises(self):
        with pytest.raises(KeyError):
            self._resolver().set_health("svc", "nope", False)

    def test_deregister(self):
        resolver = self._resolver()
        resolver.deregister("svc", "vip-az1")
        assert resolver.resolve("svc", "az1").address == "vip-az2"

    def test_no_local_endpoint_uses_remote(self):
        resolver = self._resolver()
        assert resolver.resolve("svc", "az3").address in (
            "vip-az1", "vip-az2")


class TestLink:
    def test_serialization_delay(self):
        sim = Simulator(0)
        link = Link(sim, bandwidth_bps=8000.0)  # 1000 bytes/s
        assert link.serialization_delay(500) == pytest.approx(0.5)

    def test_transfer_takes_time(self):
        sim = Simulator(0)
        link = Link(sim, bandwidth_bps=8000.0, latency_s=0.1)
        sim.process(link.transfer(1000))
        sim.run()
        assert sim.now == pytest.approx(1.1)
        assert link.bytes_carried == 1000

    def test_concurrent_transfers_serialize(self):
        sim = Simulator(0)
        link = Link(sim, bandwidth_bps=8000.0)
        sim.process(link.transfer(1000))
        sim.process(link.transfer(1000))
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_invalid_parameters(self):
        sim = Simulator(0)
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=0.0)
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=1.0, latency_s=-1.0)

    def test_negative_transfer_rejected(self):
        sim = Simulator(0)
        link = Link(sim, bandwidth_bps=1e6)
        with pytest.raises(ValueError):
            sim.process(link.transfer(-5))
            sim.run()
