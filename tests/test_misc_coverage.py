"""Coverage for smaller surfaces: cost sampling, simulator edges,
gateway sessions, monitor session series, and the experiments CLI."""

import math
import random
import re

import pytest

from repro.experiments.__main__ import main as experiments_cli
from repro.mesh.costs import DEFAULT_COSTS, sample_service_time
from repro.simcore import Simulator


class TestSampleServiceTime:
    def test_sigma_zero_returns_mean(self):
        import random
        rng = random.Random(0)
        assert sample_service_time(rng, 1e-3, 0.0) == 1e-3

    def test_mean_preserved(self):
        import random
        rng = random.Random(1)
        samples = [sample_service_time(rng, 1e-3, 1.3) for _ in range(40_000)]
        assert sum(samples) / len(samples) == pytest.approx(1e-3, rel=0.07)

    def test_heavier_sigma_heavier_tail(self):
        import random
        from repro.simcore import percentile
        light = [sample_service_time(random.Random(2), 1e-3, 0.35)
                 for _ in range(10_000)]
        heavy = [sample_service_time(random.Random(2), 1e-3, 1.3)
                 for _ in range(10_000)]
        assert percentile(heavy, 99) > 3 * percentile(light, 99)

    def test_negative_mean_rejected(self):
        import random
        with pytest.raises(ValueError):
            sample_service_time(random.Random(0), -1.0, 0.5)

    def test_negative_sigma_rejected(self):
        import random
        with pytest.raises(ValueError, match="sigma"):
            sample_service_time(random.Random(0), 1e-3, -0.5)

    @pytest.mark.parametrize("mean_s, sigma, field", [
        (float("nan"), 0.5, "mean_s"),
        (float("inf"), 0.5, "mean_s"),
        (float("inf"), 0.0, "mean_s"),
        (1e-3, float("nan"), "sigma"),
        (1e-3, float("inf"), "sigma"),
        (1e-3, float("-inf"), "sigma"),
    ])
    def test_non_finite_input_rejected(self, mean_s, sigma, field):
        import random
        with pytest.raises(ValueError, match=field):
            sample_service_time(random.Random(0), mean_s, sigma)

    @pytest.mark.parametrize("sigma", [0.5, 1.3])
    def test_zero_mean_returns_zero_without_drawing(self, sigma):
        import random
        rng = random.Random(0)
        state = rng.getstate()
        assert sample_service_time(rng, 0.0, sigma) == 0.0
        assert rng.getstate() == state

    @pytest.mark.parametrize("mean_s", [5e-324, 1e-300, 1e-6, 80e-6, 1e-3,
                                        1.0, 1e6, 1e300])
    @pytest.mark.parametrize("sigma", [1e-300, 1e-9, 0.35, 0.9, 1.3, 3.0])
    def test_in_range_draw_is_one_lognormvariate(self, mean_s, sigma):
        """Positive finite inputs draw exactly what the standard
        library's lognormal gives for the mean-preserving ``mu``."""
        rng = random.Random(17)
        clone = random.Random(0)
        clone.setstate(rng.getstate())
        for _ in range(20):
            expected = clone.lognormvariate(
                math.log(mean_s) - sigma * sigma / 2.0, sigma)
            assert sample_service_time(rng, mean_s, sigma) == expected
        assert rng.getstate() == clone.getstate()

    @pytest.mark.parametrize("mean_s, sigma, result", [
        (0.0, 0.0, 0.0),
        (0.0, 1.3, 0.0),
        (-0.0, 0.5, 0.0),
        (1e-3, 0.0, 1e-3),
        (1e300, 0.0, 1e300),
        (5e-324, 0.0, 5e-324),
        (-1.0, 0.5, "mean_s must be >= 0, got -1.0"),
        (-1.0, -0.5, "mean_s must be >= 0, got -1.0"),
        (1e-3, -0.5, "sigma must be >= 0, got -0.5"),
        (0.0, -0.0001, "sigma must be >= 0, got -0.0001"),
        (float("nan"), -1.0, "mean_s must be finite, got nan"),
        (float("-inf"), 0.5, "mean_s must be finite, got -inf"),
        (float("nan"), float("nan"), "mean_s must be finite, got nan"),
        (0.0, float("inf"), "sigma must be finite, got inf"),
        (-1.0, float("inf"), "sigma must be finite, got inf"),
        (1e-3, float("nan"), "sigma must be finite, got nan"),
    ])
    def test_out_of_range_results_and_messages(self, mean_s, sigma, result):
        """Off the one-comparison path: a zero mean or sigma returns
        without drawing, anything else raises naming the first bad
        input, in the order the checks always ran."""
        rng = random.Random(0)
        state = rng.getstate()
        if isinstance(result, str):
            with pytest.raises(ValueError, match=f"^{re.escape(result)}$"):
                sample_service_time(rng, mean_s, sigma)
        else:
            value = sample_service_time(rng, mean_s, sigma)
            assert value == result
            assert math.copysign(1.0, value) == math.copysign(1.0, result)
        assert rng.getstate() == state


class TestSimulatorEdges:
    def test_run_until_past_rejected(self):
        sim = Simulator(0)
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=0.5)

    def test_run_until_advances_clock_exactly(self):
        sim = Simulator(0)
        sim.timeout(1.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_seeded_rng_reproducible(self):
        a = Simulator(42).rng.random()
        b = Simulator(42).rng.random()
        assert a == b


class TestGatewaySessions:
    def _gateway(self):
        from repro.core import GatewayConfig, MeshGateway
        from repro.core.replica import ReplicaConfig
        sim = Simulator(3)
        gateway = MeshGateway(sim, GatewayConfig(
            replicas_per_backend=2, backends_per_service_per_az=2,
            azs_per_service=2, replica=ReplicaConfig(cores=8)))
        gateway.deploy_initial(["az1", "az2"], 4)
        tenant = gateway.registry.add_tenant("t1")
        service = gateway.registry.add_service(tenant, "web", "10.0.0.1")
        gateway.register_service(service)
        return sim, gateway, service

    def test_sessions_spread_over_backends(self):
        sim, gateway, service = self._gateway()
        gateway.set_service_sessions(service.service_id, 400_000)
        carriers = gateway.service_backends[service.service_id]
        for backend in carriers:
            assert backend.service_sessions(service.service_id) == 100_000

    def test_negative_sessions_rejected(self):
        sim, gateway, service = self._gateway()
        with pytest.raises(ValueError):
            gateway.set_service_sessions(service.service_id, -1)

    def test_session_utilization_visible(self):
        sim, gateway, service = self._gateway()
        gateway.set_service_sessions(service.service_id, 400_000)
        backend = gateway.service_backends[service.service_id][0]
        assert backend.session_utilization() == pytest.approx(0.5)

    def test_sessions_follow_failover(self):
        sim, gateway, service = self._gateway()
        gateway.set_service_sessions(service.service_id, 300_000)
        victim = gateway.service_backends[service.service_id][0]
        gateway.fail_backend(victim.name)
        survivors = [b for b in gateway.service_backends[service.service_id]
                     if b.is_healthy]
        total = sum(b.service_sessions(service.service_id)
                    for b in survivors)
        assert total == pytest.approx(300_000, rel=0.01)

    def test_monitor_records_session_series(self):
        from repro.core import GatewayMonitor
        sim, gateway, service = self._gateway()
        monitor = GatewayMonitor(sim, gateway)
        gateway.set_service_sessions(service.service_id, 100_000)
        gateway.set_service_load(service.service_id, 10_000.0)
        monitor.sample()
        assert service.service_id in monitor.service_session_series
        assert gateway.service_backends[service.service_id][0].name \
            in monitor.session_series


class TestExperimentsCli:
    def test_no_args_lists(self, capsys):
        assert experiments_cli(["prog"]) == 1
        output = capsys.readouterr().out
        assert "fig11" in output

    def test_runs_one_exhibit(self, capsys):
        assert experiments_cli(["prog", "fig26", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "fig26" in output
        assert "regenerated" in output


class TestCostModelRelations:
    def test_iptables_redirect_more_expensive_than_ebpf(self):
        assert (DEFAULT_COSTS.iptables_redirect_cpu_s()
                > DEFAULT_COSTS.ebpf_redirect_cpu_s())

    def test_l7_cost_ordering(self):
        """Sidecar (full config) > waypoint (scoped) > gateway
        (optimized multi-tenant engine)."""
        assert (DEFAULT_COSTS.istio_sidecar_l7_s
                > DEFAULT_COSTS.ambient_waypoint_l7_s
                > DEFAULT_COSTS.canal_gateway_l7_s)

    def test_sigma_ordering_matches_engine_maturity(self):
        assert (DEFAULT_COSTS.istio_l7_sigma
                > DEFAULT_COSTS.ambient_l7_sigma
                > DEFAULT_COSTS.canal_l7_sigma)

    def test_symmetric_scales_with_bytes(self):
        small = DEFAULT_COSTS.symmetric_cost(100)
        large = DEFAULT_COSTS.symmetric_cost(100_000)
        assert large > small
