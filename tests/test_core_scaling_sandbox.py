"""Tests for precise scaling (Reuse/New) and sandbox migration."""

import itertools
import math

import pytest

from repro.core import (
    GatewayConfig,
    MeshGateway,
    SandboxManager,
    ScalingEngine,
    ScalingTimings,
)
from repro.core.replica import ReplicaConfig
from repro.simcore import Simulator


def make_gateway(sim, backends_per_az=6, services=4):
    config = GatewayConfig(
        replicas_per_backend=2, backends_per_service_per_az=2,
        azs_per_service=2,
        replica=ReplicaConfig(cores=8, request_cost_s=100e-6))
    gateway = MeshGateway(sim, config)
    gateway.deploy_initial(["az1", "az2"], backends_per_az)
    tenant_services = []
    for index in range(services):
        tenant = gateway.registry.add_tenant(f"t{index + 1}")
        service = gateway.registry.add_service(tenant, "web",
                                               f"10.0.0.{index + 1}")
        gateway.register_service(service)
        tenant_services.append(service)
    return gateway, tenant_services


@pytest.fixture
def sim():
    return Simulator(9)


class TestScalingEngine:
    def test_reuse_when_idle_backend_exists(self, sim):
        gateway, services = make_gateway(sim)
        engine = ScalingEngine(sim, gateway)
        sid = services[0].service_id
        gateway.set_service_load(sid, 50_000.0)
        process = sim.process(engine.scale_service(sid))
        sim.run()
        event = process.value
        assert event.kind == "reuse"
        assert len(gateway.service_backends[sid]) > 4

    def test_new_when_pool_saturated(self, sim):
        gateway, services = make_gateway(sim, backends_per_az=2)
        engine = ScalingEngine(sim, gateway, reuse_water_threshold=0.2)
        # Saturate every backend above the reuse threshold.
        for service in services:
            gateway.set_service_load(service.service_id, 400_000.0)
        backends_before = len(gateway.all_backends)
        process = sim.process(
            engine.scale_service(services[0].service_id))
        sim.run()
        event = process.value
        assert event.kind == "new"
        assert len(gateway.all_backends) == backends_before + 1

    def test_new_much_slower_than_reuse(self, sim):
        """Fig 17: Reuse completes in ~a minute, New in ~a quarter hour."""
        gateway, services = make_gateway(sim)
        engine = ScalingEngine(sim, gateway)
        gateway.set_service_load(services[0].service_id, 50_000.0)
        reuse = sim.process(engine.scale_service(services[0].service_id))
        sim.run()
        saturated, services2 = make_gateway(Simulator(10), backends_per_az=2)
        sim2 = saturated.sim
        engine2 = ScalingEngine(sim2, saturated)
        for service in services2:
            saturated.set_service_load(service.service_id, 400_000.0)
        new = sim2.process(engine2.scale_service(services2[0].service_id))
        sim2.run()
        assert new.value.completion_s > 5 * reuse.value.completion_s

    def test_precise_scaling_reaches_target_water(self, sim):
        gateway, services = make_gateway(sim, backends_per_az=10)
        engine = ScalingEngine(sim, gateway, target_water=0.35)
        sid = services[0].service_id
        gateway.set_service_load(sid, 800_000.0)
        process = sim.process(engine.scale_service(sid))
        sim.run()
        hottest = max(b.water_level()
                      for b in gateway.service_backends[sid])
        assert hottest <= 0.35 + 0.05

    def test_concurrent_triggers_coalesce(self, sim):
        gateway, services = make_gateway(sim)
        engine = ScalingEngine(sim, gateway)
        sid = services[0].service_id
        gateway.set_service_load(sid, 50_000.0)
        first = sim.process(engine.scale_service(sid))
        second = sim.process(engine.scale_service(sid))
        sim.run()
        results = [first.value, second.value]
        assert sum(1 for r in results if r is not None) == 1
        assert len(engine.events) == 1

    def test_completion_time_accounting(self, sim):
        gateway, services = make_gateway(sim)
        engine = ScalingEngine(sim, gateway)
        gateway.set_service_load(services[0].service_id, 50_000.0)
        process = sim.process(
            engine.scale_service(services[0].service_id))
        sim.run()
        event = process.value
        assert (event.executed_at <= event.finished_at
                <= event.below_threshold_at)
        assert engine.completion_times("reuse") == [event.completion_s]

    def test_reuse_prefers_coldest_backend(self, sim):
        gateway, services = make_gateway(sim)
        engine = ScalingEngine(sim, gateway)
        sid = services[0].service_id
        # Warm up one non-carrier backend.
        other = services[1].service_id
        warm = next(b for b in gateway.all_backends
                    if not b.hosts_service(sid)
                    and b.hosts_service(other))
        gateway.set_service_load(other, 60_000.0)
        candidate = engine.find_reusable_backend(sid)
        assert candidate is not None
        assert candidate.water_level() <= warm.water_level()

    @pytest.mark.parametrize("name", ["reuse_water_threshold",
                                      "target_water"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_parameter_rejected_by_name(self, sim, name, value):
        gateway, _services = make_gateway(sim)
        with pytest.raises(ValueError, match=name):
            ScalingEngine(sim, gateway, **{name: value})


class TestSandboxManager:
    def test_lossy_migration_resets_sessions(self, sim):
        gateway, services = make_gateway(sim)
        sandbox = SandboxManager(sim, gateway)
        sid = services[0].service_id
        gateway.set_service_load(sid, 30_000.0)
        gateway.set_service_sessions(sid, 2_000)
        process = sim.process(sandbox.migrate_lossy(sid))
        sim.run()
        record = process.value
        assert record.mode == "lossy"
        assert record.sessions_reset == 2_000
        assert record.duration_s < 30.0  # "within seconds"

    def test_lossy_reset_counts_only_the_migrated_service(self, sim):
        """Co-tenants' sessions share the replicas' tables but are not
        reset: only the migrated service's own sessions count."""
        gateway, services = make_gateway(sim)
        sandbox = SandboxManager(sim, gateway)
        a, b = next(
            (a.service_id, b.service_id)
            for a, b in itertools.combinations(services, 2)
            if set(gateway.service_backends[a.service_id])
            & set(gateway.service_backends[b.service_id]))
        for sid, sessions in ((a, 400), (b, 4_000)):
            gateway.set_service_load(sid, 10_000.0)
            gateway.set_service_sessions(sid, sessions)
        process = sim.process(sandbox.migrate_lossy(a))
        sim.run()
        assert process.value.sessions_reset == 400

    def test_lossless_migration_resets_nothing(self, sim):
        gateway, services = make_gateway(sim)
        sandbox = SandboxManager(sim, gateway)
        sid = services[0].service_id
        gateway.set_service_load(sid, 30_000.0)
        process = sim.process(sandbox.migrate_lossless(sid))
        sim.run()
        record = process.value
        assert record.sessions_reset == 0
        # Completion bounded by flow timeout: minutes, not seconds.
        assert record.duration_s > 60.0

    def test_migrated_load_leaves_shared_backends(self, sim):
        """Quarantine actually protects the neighbors: the service's
        load leaves its shuffle-shard backends."""
        gateway, services = make_gateway(sim)
        sandbox = SandboxManager(sim, gateway)
        sid = services[0].service_id
        gateway.set_service_load(sid, 30_000.0)
        shared = gateway.service_backends[sid][0]
        sim.process(sandbox.migrate_lossy(sid))
        sim.run()
        assert shared.service_rps(sid) == 0.0
        assert gateway.sandboxed[sid].service_rps(sid) > 0.0

    def test_sandbox_not_in_shuffle_pool(self, sim):
        gateway, services = make_gateway(sim)
        sandbox = SandboxManager(sim, gateway)
        sim.process(sandbox.migrate_lossy(services[0].service_id))
        sim.run()
        quarantine = gateway.sandboxed[services[0].service_id]
        for pool in gateway.backends_by_az.values():
            assert quarantine not in pool

    def test_release_returns_service(self, sim):
        gateway, services = make_gateway(sim)
        sandbox = SandboxManager(sim, gateway)
        sid = services[0].service_id
        gateway.set_service_load(sid, 30_000.0)
        sim.process(sandbox.migrate_lossy(sid))
        sim.run()
        sandbox.release(sid)
        assert sid not in gateway.sandboxed
        shared_total = sum(b.service_rps(sid)
                           for b in gateway.service_backends[sid])
        assert shared_total == pytest.approx(30_000.0)
