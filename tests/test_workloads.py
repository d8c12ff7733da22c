"""Tests for load drivers and trace generators."""

import dataclasses
import gc
import random

import pytest

from repro.experiments.testbed import build_testbed
from repro.mesh import HttpRequest
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

    @pytest.mark.parametrize("driver, kwargs, field", [
        (OpenLoopDriver, {"rps": float("nan"), "duration_s": 1.0}, "rps"),
        (OpenLoopDriver, {"rps": float("inf"), "duration_s": 1.0}, "rps"),
        (OpenLoopDriver, {"rps": 10.0, "duration_s": float("nan")},
         "duration_s"),
        (OpenLoopDriver, {"rps": 10.0, "duration_s": float("inf")},
         "duration_s"),
        (OpenLoopDriver, {"rps": 10.0, "duration_s": 1.0, "connections": 0},
         "connections"),
        (ShortFlowDriver, {"rps": float("nan"), "duration_s": 1.0}, "rps"),
        (ShortFlowDriver, {"rps": 10.0, "duration_s": float("nan")},
         "duration_s"),
        (ClosedLoopDriver, {"connections": -2}, "connections"),
        (ClosedLoopDriver, {"connections": 0}, "connections"),
        (ClosedLoopDriver, {"requests_per_connection": -1},
         "requests_per_connection"),
        (ClosedLoopDriver, {"think_time_s": -1.0}, "think_time_s"),
        (ClosedLoopDriver, {"think_time_s": float("nan")}, "think_time_s"),
        (ClosedLoopDriver, {"think_time_s": float("inf")}, "think_time_s"),
        # Counts are ints: a fractional or bool count is rejected by name,
        # not floored, taken as 1, or left to fail inside ``sim.run``.
        (OpenLoopDriver, {"rps": 10.0, "duration_s": 1.0,
                          "connections": 2.5}, "connections"),
        (OpenLoopDriver, {"rps": 10.0, "duration_s": 1.0,
                          "connections": True}, "connections"),
        (ClosedLoopDriver, {"connections": 2.5}, "connections"),
        (ClosedLoopDriver, {"connections": True}, "connections"),
        (ClosedLoopDriver, {"requests_per_connection": 2.5},
         "requests_per_connection"),
        (ClosedLoopDriver, {"requests_per_connection": False},
         "requests_per_connection"),
    ])
    def test_bad_input_rejected_by_name(self, driver, kwargs, field):
        run = build_testbed("no-mesh")
        with pytest.raises(ValueError,
                           match=rf"^{driver.__name__}\.{field} must be"):
            driver(run.sim, run.mesh, run.client_pod, "svc1", **kwargs)

    def test_edge_inputs_accepted(self):
        run = build_testbed("no-mesh")
        driver = ClosedLoopDriver(run.sim, run.mesh, run.client_pod, "svc1",
                                  connections=1, requests_per_connection=0,
                                  think_time_s=0.0)
        report = run.run_driver(driver)
        assert report.offered == report.completed == 0

    @pytest.mark.parametrize("mesh", ["no-mesh", "istio", "canal"])
    @pytest.mark.parametrize("driver_cls, kwargs", [
        (OpenLoopDriver, {"rps": 500.0, "duration_s": 0.05,
                          "connections": 3}),
        (ClosedLoopDriver, {"connections": 2, "requests_per_connection": 5}),
        (ShortFlowDriver, {"rps": 500.0, "duration_s": 0.05}),
    ], ids=["open", "closed", "short"])
    def test_every_request_sends_the_drivers_one_request(
            self, driver_cls, kwargs, mesh):
        run = build_testbed(mesh, seed=7)
        driver = driver_cls(run.sim, run.mesh, run.client_pod, "svc1",
                            **kwargs)
        sent, mesh_request = [], run.mesh.request

        def spy(connection, request):
            sent.append(request)
            return mesh_request(connection, request)

        run.mesh.request = spy
        report = run.run_driver(driver)
        assert len(sent) == report.offered == report.completed > 5
        assert all(request is driver.request for request in sent)
        assert driver.request == HttpRequest(
            method="GET", path="/", body_bytes=128, response_bytes=1024)
        with pytest.raises(dataclasses.FrozenInstanceError):
            driver.request.body_bytes = 0

    def test_error_count(self):
        run = build_testbed("no-mesh")
        driver = ClosedLoopDriver(run.sim, run.mesh, run.client_pod,
                                  "svc1", connections=1,
                                  requests_per_connection=3)
        report = run.run_driver(driver)
        report.statuses.append(503)
        assert report.error_count == 1


class _LoopOpenLoopDriver(OpenLoopDriver):
    """Reference: the open loop as one timeout and one resume of the
    driver's process per arrival, as it was before the arrival chain."""

    def run(self):
        pool = []
        for _ in range(self.connections):
            connection = yield from self.mesh.open_connection(
                self.client_pod, self.service)
            pool.append(connection)
        start = self.sim.now
        end = start + self.duration_s
        index = 0
        while self.sim.now < end:
            yield self.sim.timeout(self.sim.rng.expovariate(self.rps))
            if self.sim.now >= end:
                break
            connection = pool[index % len(pool)]
            index += 1
            self.report.offered += 1
            self.sim.process(self._one_request(connection), name="req")
        yield from self._join()
        self.report.duration_s = self.sim.now - start
        return self.report


class _LoopShortFlowDriver(ShortFlowDriver):
    """Reference: short flows as one timeout and one resume of the
    driver's process per arrival."""

    def run(self):
        start = self.sim.now
        end = start + self.duration_s
        while self.sim.now < end:
            yield self.sim.timeout(self.sim.rng.expovariate(self.rps))
            if self.sim.now >= end:
                break
            self.report.offered += 1
            self.sim.process(self._flow(), name="flow")
        yield from self._join()
        self.report.duration_s = self.sim.now - start
        return self.report


class _CountingRun:
    """Wraps a driver's ``run()`` generator and counts its resumes."""

    def __init__(self, generator):
        self.generator = generator
        self.resumes = 0

    def send(self, value):
        self.resumes += 1
        return self.generator.send(value)

    def throw(self, exception):
        self.resumes += 1
        return self.generator.throw(exception)

    def close(self):
        self.generator.close()


def _drive(driver_cls, mesh, seed, rps, duration_s):
    """One run of ``driver_cls`` on a fresh testbed: (report, final
    ``sim.now``, agenda entries the run took)."""
    run = build_testbed(mesh, seed=seed)
    kwargs = ({"connections": 10}
              if issubclass(driver_cls, OpenLoopDriver) else {})
    driver = driver_cls(run.sim, run.mesh, run.client_pod, "svc1",
                        rps=rps, duration_s=duration_s, **kwargs)
    sequence = run.sim._sequence
    report = run.run_driver(driver)
    return report, run.sim.now, run.sim._sequence - sequence


def _outcome(report, now):
    return (list(report.latency.values), report.statuses, report.offered,
            report.completed, report.duration_s, now)


class TestArrivalChain:
    """The open-loop and short-flow drivers offer each arrival as one
    agenda call, not a resume of the driver's process. The schedule
    must be the per-arrival loop's, draw for draw."""

    #: Offered load for the ``load`` case: about 200 arrivals.
    RPS = {"no-mesh": 4000.0, "istio": 1000.0, "ambient": 4000.0,
           "canal": 4000.0}

    @pytest.mark.parametrize("case", ["none", "one", "load"])
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("mesh", ["no-mesh", "istio", "ambient",
                                      "canal"])
    @pytest.mark.parametrize("chain, loop", [
        pytest.param(OpenLoopDriver, _LoopOpenLoopDriver, id="open"),
        pytest.param(ShortFlowDriver, _LoopShortFlowDriver, id="short")])
    def test_same_report_as_the_per_arrival_loop(self, chain, loop, mesh,
                                                 seed, case):
        rps, duration_s = 100.0, 1e-6
        if case == "one":
            # Just past the first arrival, which the zero-arrival run
            # reports as its duration.
            first, _now, _entries = _drive(loop, mesh, seed, rps, duration_s)
            duration_s = first.duration_s * (1 + 1e-6)
        elif case == "load":
            rps = self.RPS[mesh]
            duration_s = 200 / rps
        expected, loop_now, loop_entries = _drive(loop, mesh, seed, rps,
                                                  duration_s)
        got, now, entries = _drive(chain, mesh, seed, rps, duration_s)
        assert _outcome(got, now) == _outcome(expected, loop_now)
        assert {"none": 0, "one": 1}.get(case, got.offered) <= got.offered
        assert got.offered <= {"none": 0, "one": 2}.get(case, got.offered)
        if case == "load":
            assert got.offered > 100
        # One entry ends the chain; the join may save one.
        assert loop_entries <= entries <= loop_entries + 1

    @pytest.mark.parametrize("driver_cls", [OpenLoopDriver, ShortFlowDriver])
    def test_arrivals_do_not_resume_the_driver(self, driver_cls):
        """The driver's process resumes as often for 500 arrivals as for
        5, give or take the one wait that joins requests still in
        flight."""
        resumes, offered = [], []
        for duration_s in (0.01, 1.0):
            run = build_testbed("canal", seed=7)
            kwargs = ({"connections": 10}
                      if driver_cls is OpenLoopDriver else {})
            driver = driver_cls(run.sim, run.mesh, run.client_pod, "svc1",
                                rps=500.0, duration_s=duration_s, **kwargs)
            body = _CountingRun(driver.run())
            process = run.sim.process(body, name="driver")
            run.sim.run()
            assert process.value is driver.report
            resumes.append(body.resumes)
            offered.append(driver.report.offered)
        assert offered[0] < 10 and offered[1] > 400, offered
        assert abs(resumes[1] - resumes[0]) <= 1, (resumes, offered)


class TestSimulationCost:
    """Agenda entries and processes a simulated request costs.

    A sub-step its caller only waits on runs inline (``yield from``)
    and a free core is taken without an agenda entry, so each request
    is one process. A process nothing waits on ends without an entry,
    and the drivers join by count, not over every request's process.
    Back-to-back fixed delays share one timeout, and CPU work shares
    one wait with the fixed delay after it, queued or not. Re-spawning
    any sub-step adds about two entries and one process per request,
    and splitting a merged timeout or wait adds one entry; either trips
    these ceilings.
    """

    #: (driver, mesh) -> (offered rps, max events per request, max
    #: processes per request). The open-loop rates are the e2e
    #: datapath's (~70% of each knee); short flows run at the e2e
    #: shortflow rate, each with a fresh mTLS handshake.
    CEILINGS = {(OpenLoopDriver, "canal"): (7700.0, 5.7, 1.2),
                (OpenLoopDriver, "istio"): (1000.0, 4.7, 1.2),
                (OpenLoopDriver, "ambient"): (4200.0, 5.7, 1.2),
                (ShortFlowDriver, "canal"): (200.0, 16.5, 1.2),
                (ShortFlowDriver, "istio"): (200.0, 15.5, 1.2),
                (ShortFlowDriver, "ambient"): (200.0, 16.5, 1.2)}

    def test_request_path_stays_cheap_to_simulate(self, monkeypatch):
        constructed = [0]
        init = events.Process.__init__

        def counting_init(self, *args, **kwargs):
            constructed[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(events.Process, "__init__", counting_init)
        over = []
        for (driver_cls, mesh), (rps, max_events,
                                 max_processes) in self.CEILINGS.items():
            run = build_testbed(mesh, seed=7)
            kwargs = ({"connections": 10}
                      if driver_cls is OpenLoopDriver else {})
            driver = driver_cls(run.sim, run.mesh, run.client_pod, "svc1",
                                rps=rps, duration_s=500 / rps, **kwargs)
            sequence, constructed[0] = run.sim._sequence, 0
            report = run.run_driver(driver)
            assert report.ok_count == report.completed > 400
            per_request = (run.sim._sequence - sequence) / report.completed
            processes = constructed[0] / report.completed
            name = f"{driver_cls.__name__}/{mesh}"
            if per_request > max_events:
                over.append(f"{name}: {per_request:.2f} events/request "
                            f"> {max_events}")
            if processes > max_processes:
                over.append(f"{name}: {processes:.2f} processes/request "
                            f"> {max_processes}")
        assert not over, "; ".join(over)

    def test_live_processes_bounded_by_in_flight(self):
        """Midway through an open-loop run, the Process objects still in
        memory are the requests in flight plus the driver and the probe,
        not every request offered so far."""
        run = build_testbed("istio", seed=7)
        driver = OpenLoopDriver(run.sim, run.mesh, run.client_pod, "svc1",
                                rps=1000.0, duration_s=0.6, connections=10)
        seen = []

        def probe():
            while driver.report.offered < 300:
                yield run.sim.timeout(0.005)
            report = driver.report
            live = sum(1 for obj in gc.get_objects()
                       if isinstance(obj, events.Process)
                       and obj.sim is run.sim)
            seen.append((report.offered - report.completed, live))

        run.sim.process(probe(), name="probe")
        report = run.run_driver(driver)
        assert report.completed == report.offered >= 500
        [(in_flight, live)] = seen
        assert live <= in_flight + 2, seen


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
