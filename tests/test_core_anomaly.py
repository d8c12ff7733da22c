"""Tests for anomaly classification and the rapid responder."""

import pytest

from repro.core import (
    AnomalySignals,
    GatewayConfig,
    GatewayMonitor,
    MeshGateway,
    RapidResponder,
    SandboxManager,
    ScalingEngine,
    ScalingTimings,
    classify,
)
from repro.core.anomaly import (
    DDOS,
    EXPENSIVE_QUERY,
    NORMAL_GROWTH,
    UNDETERMINED,
)
from repro.core.replica import ReplicaConfig
from repro.simcore import Simulator


class TestClassification:
    def test_attack_signature(self):
        """Case #1: sessions surge without matching RPS → DDoS."""
        signals = AnomalySignals(rps_growth=1.05, session_growth=6.0,
                                 water_growth=1.4)
        assert classify(signals) == DDOS

    def test_workload_growth(self):
        signals = AnomalySignals(rps_growth=2.5, session_growth=2.6,
                                 water_growth=2.4)
        assert classify(signals) == NORMAL_GROWTH

    def test_expensive_query(self):
        """Water rises, RPS doesn't: a query of death costs CPU per
        request, not request volume."""
        signals = AnomalySignals(rps_growth=1.05, session_growth=1.1,
                                 water_growth=2.0)
        assert classify(signals) == EXPENSIVE_QUERY

    def test_undetermined(self):
        signals = AnomalySignals(rps_growth=1.0, session_growth=1.0,
                                 water_growth=1.0)
        assert classify(signals) == UNDETERMINED


def make_stack(sim, signal):
    config = GatewayConfig(
        replicas_per_backend=2, backends_per_service_per_az=2,
        azs_per_service=2,
        replica=ReplicaConfig(cores=8, request_cost_s=100e-6))
    gateway = MeshGateway(sim, config)
    gateway.deploy_initial(["az1", "az2"], 6)
    services = []
    for index in range(4):
        tenant = gateway.registry.add_tenant(f"t{index + 1}")
        service = gateway.registry.add_service(tenant, "web",
                                               f"10.0.0.{index + 1}")
        gateway.register_service(service)
        services.append(service)
    monitor = GatewayMonitor(sim, gateway, interval_s=1.0)
    scaling = ScalingEngine(sim, gateway,
                            timings=ScalingTimings(reuse_median_s=2.0,
                                                   settle_median_s=2.0))
    sandbox = SandboxManager(sim, gateway)
    responder = RapidResponder(sim, gateway, monitor, scaling, sandbox,
                               signal_provider=lambda sid: signal)
    return gateway, services, monitor, scaling, sandbox, responder


def overload(sim, gateway, monitor, service, seconds=20):
    def driver():
        for second in range(seconds):
            gateway.set_service_load(service.service_id,
                                     10_000.0 + 200_000.0 * second)
            monitor.sample()
            yield sim.timeout(1.0)

    sim.process(driver())
    sim.run(until=seconds + 120.0)


class TestRapidResponder:
    def test_normal_growth_triggers_scaling(self):
        sim = Simulator(11)
        signal = AnomalySignals(rps_growth=3.0, session_growth=3.0,
                                water_growth=2.0)
        gateway, services, monitor, scaling, sandbox, responder = \
            make_stack(sim, signal)
        overload(sim, gateway, monitor, services[0])
        assert any(r.action == "scale" for r in responder.responses)
        assert scaling.events

    def test_attack_triggers_lossy_sandbox(self):
        sim = Simulator(12)
        signal = AnomalySignals(rps_growth=1.05, session_growth=6.0,
                                water_growth=2.0)
        gateway, services, monitor, scaling, sandbox, responder = \
            make_stack(sim, signal)
        overload(sim, gateway, monitor, services[0])
        assert any(r.action == "sandbox_lossy" for r in responder.responses)
        assert any(record.mode == "lossy" for record in sandbox.records)
        assert services[0].service_id in gateway.sandboxed

    def test_expensive_query_triggers_lossless(self):
        sim = Simulator(13)
        signal = AnomalySignals(rps_growth=1.05, session_growth=1.1,
                                water_growth=2.0)
        gateway, services, monitor, scaling, sandbox, responder = \
            make_stack(sim, signal)
        overload(sim, gateway, monitor, services[0])
        assert any(r.action == "sandbox_lossless"
                   for r in responder.responses)
