"""Tests for load drivers and trace generators."""

import random

import pytest

from repro.experiments.testbed import build_testbed
from repro.simcore import events
from repro.workloads import (
    ClosedLoopDriver,
    OpenLoopDriver,
    ShortFlowDriver,
    attack_trace,
    diurnal_profile,
    flat_profile,
    growth_trend,
    production_latency_samples,
    surge_trace,
    update_frequency_for_cluster,
)


@pytest.fixture
def rng():
    return random.Random(99)


class TestDrivers:
    def test_closed_loop_counts(self):
        run = build_testbed("no-mesh")
        driver = ClosedLoopDriver(run.sim, run.mesh, run.client_pod,
                                  "svc1", connections=2,
                                  requests_per_connection=10)
        report = run.run_driver(driver)
        assert report.completed == 20
        assert report.ok_count == 20
        assert len(report.latency) == 20

    def test_closed_loop_think_time_paces(self):
        run = build_testbed("no-mesh")
        driver = ClosedLoopDriver(run.sim, run.mesh, run.client_pod,
                                  "svc1", connections=1,
                                  requests_per_connection=5,
                                  think_time_s=1.0)
        report = run.run_driver(driver)
        assert report.duration_s >= 5.0

    def test_open_loop_offered_close_to_target(self):
        run = build_testbed("no-mesh")
        driver = OpenLoopDriver(run.sim, run.mesh, run.client_pod,
                                "svc1", rps=100.0, duration_s=5.0,
                                connections=10)
        report = run.run_driver(driver)
        assert report.offered == pytest.approx(500, rel=0.25)
        assert report.completed == report.offered

    def test_open_loop_throughput(self):
        run = build_testbed("no-mesh")
        driver = OpenLoopDriver(run.sim, run.mesh, run.client_pod,
                                "svc1", rps=50.0, duration_s=4.0)
        report = run.run_driver(driver)
        assert report.throughput_rps == pytest.approx(
            report.completed / report.duration_s)

    def test_short_flow_opens_connection_per_request(self):
        run = build_testbed("canal")
        driver = ShortFlowDriver(run.sim, run.mesh, run.client_pod,
                                 "svc1", rps=50.0, duration_s=1.0)
        report = run.run_driver(driver)
        assert report.completed > 10
        # Short-flow latency includes the handshake: well above the
        # persistent-connection request latency.
        assert report.latency.mean > 2e-3

    def test_driver_validation(self):
        run = build_testbed("no-mesh")
        with pytest.raises(ValueError):
            OpenLoopDriver(run.sim, run.mesh, run.client_pod, "svc1",
                           rps=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            ShortFlowDriver(run.sim, run.mesh, run.client_pod, "svc1",
                            rps=10.0, duration_s=-1.0)

    def test_error_count(self):
        run = build_testbed("no-mesh")
        driver = ClosedLoopDriver(run.sim, run.mesh, run.client_pod,
                                  "svc1", connections=1,
                                  requests_per_connection=3)
        report = run.run_driver(driver)
        report.statuses.append(503)
        assert report.error_count == 1


class TestSimulationCost:
    """Agenda entries and processes a simulated request costs.

    A sub-step its caller only waits on runs inline (``yield from``)
    and a free core is taken without an agenda entry, so each request
    is one process. Re-spawning any sub-step adds about two entries
    and one process per request and trips these ceilings.
    """

    #: mesh -> (offered rps, max events per request, max processes per
    #: request). The rates are the e2e datapath's (~70% of each knee).
    CEILINGS = {"canal": (7700.0, 13.0, 1.2),
                "istio": (1000.0, 10.5, 1.2),
                "ambient": (4200.0, 13.2, 1.2)}

    def test_request_path_stays_cheap_to_simulate(self, monkeypatch):
        constructed = [0]
        init = events.Process.__init__

        def counting_init(self, *args, **kwargs):
            constructed[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(events.Process, "__init__", counting_init)
        over = []
        for mesh, (rps, max_events, max_processes) in self.CEILINGS.items():
            run = build_testbed(mesh, seed=7)
            driver = OpenLoopDriver(run.sim, run.mesh, run.client_pod,
                                    "svc1", rps=rps, duration_s=500 / rps,
                                    connections=10)
            sequence, constructed[0] = run.sim._sequence, 0
            report = run.run_driver(driver)
            assert report.ok_count == report.completed > 400
            per_request = (run.sim._sequence - sequence) / report.completed
            processes = constructed[0] / report.completed
            if per_request > max_events:
                over.append(f"{mesh}: {per_request:.2f} events/request "
                            f"> {max_events}")
            if processes > max_processes:
                over.append(f"{mesh}: {processes:.2f} processes/request "
                            f"> {max_processes}")
        assert not over, "; ".join(over)


class TestTraces:
    def test_diurnal_profile_peaks_where_asked(self, rng):
        profile = diurnal_profile(rng, 100.0, 1000.0, samples=96,
                                  peak_position=0.25, noise=0.0)
        assert profile.peak_index == 24

    def test_diurnal_validation(self, rng):
        with pytest.raises(ValueError):
            diurnal_profile(rng, 100.0, 50.0)

    def test_flat_profile_is_flat(self, rng):
        profile = flat_profile(rng, 100.0, noise=0.0)
        assert min(profile.samples) == max(profile.samples)

    def test_surge_trace_levels(self, rng):
        trace = surge_trace(rng, 100.0, 1000.0, duration_s=60,
                            surge_start_s=30, ramp_s=5, noise=0.0)
        assert trace[0] == pytest.approx(100.0)
        assert trace[59] == pytest.approx(1000.0)
        assert len(trace) == 60

    def test_attack_trace_signature(self, rng):
        """Sessions surge, RPS barely moves — classify() must see DDoS."""
        rps, sessions = attack_trace(rng, 1000.0, 50_000.0,
                                     duration_s=60, attack_start_s=30)
        rps_growth = rps[-1] / rps[0]
        session_growth = sessions[-1] / sessions[0]
        assert rps_growth < 1.3
        assert session_growth > 3.0

    def test_growth_trend_endpoints(self, rng):
        series = growth_trend(rng, 100.0, 200.0, points=9, noise=0.0)
        assert series[0] == pytest.approx(100.0)
        assert series[-1] == pytest.approx(200.0)

    def test_growth_trend_validation(self, rng):
        with pytest.raises(ValueError):
            growth_trend(rng, 1.0, 2.0, points=1)

    def test_update_frequency_bands(self, rng):
        """Table 2's bands by cluster size."""
        small = update_frequency_for_cluster(rng, 300)
        large = update_frequency_for_cluster(rng, 2250)
        assert 0.5 < small < 6.0
        assert 35.0 < large < 75.0

    def test_production_latency_bimodal(self, rng):
        samples = production_latency_samples(rng, count=5000)
        in_40_50 = sum(1 for v in samples if 40e-3 <= v < 50e-3)
        in_100_200 = sum(1 for v in samples if 100e-3 <= v < 200e-3)
        assert in_40_50 / len(samples) > 0.2
        assert in_100_200 / len(samples) > 0.2
