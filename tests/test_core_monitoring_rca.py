"""Tests for gateway monitoring and root-cause analysis."""

import math

import pytest

from repro.core import (
    GatewayConfig,
    GatewayMonitor,
    MeshGateway,
    RootCauseAnalyzer,
    pearson,
)
from repro.core import monitoring
from repro.core.replica import ReplicaConfig
from repro.simcore import Simulator


def make_setup(sim, services=4):
    config = GatewayConfig(
        replicas_per_backend=2, backends_per_service_per_az=2,
        azs_per_service=2,
        replica=ReplicaConfig(cores=8, request_cost_s=100e-6))
    gateway = MeshGateway(sim, config)
    gateway.deploy_initial(["az1", "az2"], 4)
    tenant_services = []
    for index in range(services):
        tenant = gateway.registry.add_tenant(f"t{index + 1}")
        service = gateway.registry.add_service(tenant, "web",
                                               f"10.0.0.{index + 1}")
        gateway.register_service(service)
        tenant_services.append(service)
    monitor = GatewayMonitor(sim, gateway, interval_s=1.0)
    return gateway, tenant_services, monitor


@pytest.fixture
def sim():
    return Simulator(5)


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_anti_correlation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_short_series_is_zero(self):
        assert pearson([1], [2]) == 0.0

    def test_unequal_lengths_use_tail(self):
        assert pearson([9, 1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)


class TestGatewayMonitor:
    @pytest.mark.parametrize("interval", [0.0, -1.0, math.inf, math.nan])
    def test_bad_interval_rejected_by_name(self, sim, interval):
        """A zero interval would sample forever at t=0; reject it (and
        the other non-positive or non-finite ones) up front."""
        gateway, _services, _monitor = make_setup(sim)
        with pytest.raises(ValueError, match="interval_s"):
            GatewayMonitor(sim, gateway, interval_s=interval)

    def test_samples_recorded(self, sim):
        gateway, services, monitor = make_setup(sim)
        gateway.set_service_load(services[0].service_id, 1000.0)
        monitor.start()
        sim.run(until=5.0)
        series = monitor.service_series[services[0].service_id]
        assert len(series) >= 5

    def test_backend_alert_on_threshold(self, sim):
        gateway, services, monitor = make_setup(sim)
        monitor.start()
        sim.run(until=2.0)
        gateway.set_service_load(services[0].service_id, 2_000_000.0)
        sim.run(until=4.0)
        assert any(alert.level == "backend" for alert in monitor.alerts)

    def test_alert_fires_on_rising_edge_only(self, sim):
        gateway, services, monitor = make_setup(sim)
        gateway.set_service_load(services[0].service_id, 2_000_000.0)
        monitor.start()
        sim.run(until=10.0)
        backend_alerts = [a for a in monitor.alerts if a.level == "backend"]
        alerted_backends = {a.subject for a in backend_alerts}
        assert len(backend_alerts) == len(alerted_backends)

    def test_subscriber_called(self, sim):
        gateway, services, monitor = make_setup(sim)
        seen = []
        monitor.subscribe(seen.append)
        gateway.set_service_load(services[0].service_id, 2_000_000.0)
        monitor.start()
        sim.run(until=2.0)
        assert seen

    def test_service_alert_only_for_autoscaling_tenants(self, sim):
        gateway, services, monitor = make_setup(sim)
        services[0].tenant.auto_scaling = False
        gateway.set_service_load(services[0].service_id, 2_000_000.0)
        monitor.start()
        sim.run(until=2.0)
        service_alerts = [a for a in monitor.alerts if a.level == "service"]
        assert str(services[0].service_id) not in {
            a.subject for a in service_alerts}

    def test_double_start_rejected(self, sim):
        gateway, services, monitor = make_setup(sim)
        monitor.start()
        with pytest.raises(RuntimeError):
            monitor.start()


#: The alerts the scripted run below raised before the monitor read
#: cached water levels: (level, subject, time, value, message).
SCRIPTED_ALERTS = [
    ("backend", "backend-4", 0.0, 0.703125, "water level 0.70 over 0.70"),
    ("backend", "backend-7", 0.0, 0.78125, "water level 0.78 over 0.70"),
    ("backend", "backend-1", 3.0, 1.0, "water level 1.00 over 0.70"),
    ("backend", "backend-3", 3.0, 1.0, "water level 1.00 over 0.70"),
    ("backend", "backend-5", 3.0, 0.9375, "water level 0.94 over 0.70"),
    ("backend", "backend-6", 3.0, 1.0, "water level 1.00 over 0.70"),
    ("backend", "backend-8", 3.0, 1.0, "water level 1.00 over 0.70"),
    ("service", "1", 3.0, 1.0,
     "auto-scaling service near resource depletion"),
    ("service", "3", 3.0, 1.0,
     "auto-scaling service near resource depletion"),
    ("backend", "backend-3", 12.0, 1.0, "water level 1.00 over 0.70"),
    ("backend", "backend-7", 12.0, 1.0, "water level 1.00 over 0.70"),
    ("backend", "backend-8", 12.0, 1.0, "water level 1.00 over 0.70"),
    ("backend", "backend-3", 12.0, 0.875, "session table 0.88 over 0.80"),
    ("backend", "backend-4", 12.0, 0.875, "session table 0.88 over 0.80"),
    ("backend", "backend-7", 12.0, 0.875, "session table 0.88 over 0.80"),
    ("backend", "backend-8", 12.0, 0.875, "session table 0.88 over 0.80"),
]


class TestMonitorSemantics:
    def test_scripted_alerts_pinned(self, sim):
        """Load, session and failure steps on a ticking monitor raise
        exactly the pinned alerts, in order, with exact values."""
        gateway, services, monitor = make_setup(sim)
        services[1].tenant.auto_scaling = False
        s0, s1, s2, _s3 = (s.service_id for s in services)
        victim = gateway.service_backends[s0][0].name
        steps = {
            0: lambda: (gateway.set_service_load(s0, 400_000.0),
                        gateway.set_service_load(s1, 100_000.0),
                        gateway.set_service_load(s2, 50_000.0),
                        gateway.set_service_sessions(s0, 200_000)),
            3: lambda: (gateway.set_service_load(s0, 2_000_000.0),
                        gateway.set_service_load(s2, 600_000.0)),
            6: lambda: gateway.fail_backend(victim),
            9: lambda: (gateway.set_service_load(s0, 50_000.0),
                        gateway.recover_backend(victim)),
            12: lambda: (gateway.set_service_load(s0, 2_000_000.0),
                         gateway.set_service_sessions(s0, 700_000)),
        }

        def script():
            for tick in range(16):
                if tick in steps:
                    steps[tick]()
                yield sim.timeout(1.0)

        sim.process(script())
        monitor.start()
        sim.run(until=16.0)
        assert [(a.level, a.subject, a.time, a.value, a.message)
                for a in monitor.alerts] == SCRIPTED_ALERTS

    def test_service_alert_sees_load_a_subscriber_raised(self, sim):
        """A backend-alert subscriber that adds load changes what a
        service alert later in the same sample reads."""
        gateway, services, monitor = make_setup(sim)
        sid = services[0].service_id
        # 480k RPS over 4 backends x 2 replicas of 80k RPS: water 0.75,
        # over the backend threshold (0.7), under the service one (0.85).
        gateway.set_service_load(sid, 480_000.0)

        def flood(alert):
            if alert.level == "backend":
                gateway.set_service_load(sid, 2_000_000.0)

        monitor.subscribe(flood)
        monitor.sample()
        assert any(a.level == "backend" and a.value == 0.75
                   for a in monitor.alerts)
        assert ("service", str(sid), 0.0, 1.0) in [
            (a.level, a.subject, a.time, a.value) for a in monitor.alerts]

    def test_series_created_once_and_kept(self, sim, monkeypatch):
        built = []

        class CountingSeries(monitoring.TimeSeries):
            def __init__(self, name):
                super().__init__(name)
                built.append(name)

        monkeypatch.setattr(monitoring, "TimeSeries", CountingSeries)
        gateway, services, monitor = make_setup(sim)
        for service in services:
            gateway.set_service_load(service.service_id, 10_000.0)
            gateway.set_service_sessions(service.service_id, 1_000)
        tables = (monitor.backend_series, monitor.session_series,
                  monitor.service_series, monitor.service_session_series)
        monitor.sample()
        first = [dict(table) for table in tables]
        for _ in range(4):
            sim.run(until=sim.now + 1.0)
            monitor.sample()
        assert len(built) == len(set(built)) == sum(map(len, first))
        for before, table in zip(first, tables):
            assert list(table) == list(before)
            for key, series in table.items():
                assert series is before[key]
                assert len(series) == 5


class TestRootCauseAnalysis:
    def _grow_service(self, sim, gateway, monitor, service,
                      others, seconds=30):
        """Drive a growth trace: the target service ramps, others flat."""
        def driver():
            for second in range(seconds):
                gateway.set_service_load(
                    service.service_id, 10_000.0 + 3_000.0 * second)
                for other in others:
                    gateway.set_service_load(other.service_id, 8_000.0)
                monitor.sample()
                yield sim.timeout(1.0)

        sim.process(driver())
        sim.run(until=seconds + 1)

    def test_basic_algorithm_pinpoints_grower(self, sim):
        gateway, services, monitor = make_setup(sim)
        analyzer = RootCauseAnalyzer(gateway, monitor)
        target, others = services[0], services[1:]
        self._grow_service(sim, gateway, monitor, target, others)
        hot = max(gateway.service_backends[target.service_id],
                  key=lambda b: b.water_level())
        result = analyzer._basic(hot)
        assert result.found
        assert result.service_id == target.service_id
        assert result.method == "basic"

    def test_intersection_speculation(self, sim):
        gateway, services, monitor = make_setup(sim)
        analyzer = RootCauseAnalyzer(gateway, monitor)
        target = services[0]
        # Overload only the target: all its backends run hot together.
        gateway.set_service_load(target.service_id, 5_000_000.0)
        monitor.sample()
        result = analyzer.analyze(gateway.service_backends[
            target.service_id][0])
        assert result.found
        assert result.service_id == target.service_id
        assert result.method == "intersection"

    def test_ambiguous_intersection_falls_back(self, sim):
        """When the hot-backend intersection isn't a singleton, the
        analyzer reverts to the basic algorithm (§4.3)."""
        gateway, services, monitor = make_setup(sim)
        analyzer = RootCauseAnalyzer(gateway, monitor)
        target, decoy = services[0], services[1]
        # Force the decoy onto exactly the target's backends so the
        # intersection has two members.
        for backend in gateway.service_backends[target.service_id]:
            if not backend.hosts_service(decoy.service_id):
                gateway.extend_service(decoy.service_id, backend)
        self._grow_service(sim, gateway, monitor, target,
                           [decoy] + list(services[2:]))
        gateway.set_service_load(target.service_id, 5_000_000.0)
        monitor.sample()
        hot = gateway.service_backends[target.service_id][0]
        result = analyzer.analyze(hot)
        assert result.method == "basic"
        assert result.service_id == target.service_id

    def test_no_data_returns_not_found(self, sim):
        gateway, services, monitor = make_setup(sim)
        analyzer = RootCauseAnalyzer(gateway, monitor)
        result = analyzer._basic(gateway.all_backends[0])
        assert not result.found

    def test_flat_services_not_blamed(self, sim):
        gateway, services, monitor = make_setup(sim)
        analyzer = RootCauseAnalyzer(gateway, monitor)

        def driver():
            for _ in range(20):
                for service in services:
                    gateway.set_service_load(service.service_id, 9_000.0)
                monitor.sample()
                yield sim.timeout(1.0)

        sim.process(driver())
        sim.run(until=21.0)
        result = analyzer._basic(gateway.all_backends[0])
        assert not result.found
