"""Tests for the CPU resource: queueing and busy-time accounting."""

import math
import random
from collections import deque

import pytest

from repro.simcore import CpuResource, Event, Interrupt, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator(seed=0)


class TestCpuResource:
    def test_busy_time_single_job(self, sim):
        cpu = CpuResource(sim, cores=1)

        def job():
            yield from cpu.execute(2.5)

        sim.process(job())
        sim.run()
        assert cpu.busy_time() == pytest.approx(2.5)

    def test_parallel_jobs_on_multiple_cores(self, sim):
        cpu = CpuResource(sim, cores=2)
        for _ in range(2):
            sim.process(cpu.execute(1.0))
        sim.run()
        assert sim.now == pytest.approx(1.0)
        assert cpu.busy_time() == pytest.approx(2.0)

    def test_queueing_on_saturated_cpu(self, sim):
        cpu = CpuResource(sim, cores=1)
        for _ in range(3):
            sim.process(cpu.execute(1.0))
        sim.run()
        assert sim.now == pytest.approx(3.0)
        assert cpu.busy_time() == pytest.approx(3.0)

    def test_utilization_full(self, sim):
        cpu = CpuResource(sim, cores=2)
        for _ in range(4):
            sim.process(cpu.execute(1.0))
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert cpu.busy_time() / (sim.now * 2) == pytest.approx(1.0)

    def test_utilization_partial(self, sim):
        cpu = CpuResource(sim, cores=1)
        sim.process(cpu.execute(1.0))
        sim.run(until=4.0)
        assert cpu.busy_time() / sim.now == pytest.approx(0.25)

    def test_utilization_between_marks(self, sim):
        cpu = CpuResource(sim, cores=1)
        marks = []

        def scenario():
            marks.append((sim.now, cpu.busy_time()))
            yield from cpu.execute(1.0)
            yield sim.timeout(1.0)
            marks.append((sim.now, cpu.busy_time()))
            yield from cpu.execute(2.0)
            marks.append((sim.now, cpu.busy_time()))

        sim.process(scenario())
        sim.run()
        windows = [(b1 - b0) / (t1 - t0)
                   for (t0, b0), (t1, b1) in zip(marks, marks[1:])]
        assert windows[0] == pytest.approx(0.5)   # busy 1 of 2 s
        assert windows[1] == pytest.approx(1.0)   # busy 2 of 2 s

    def test_negative_work_rejected(self, sim):
        cpu = CpuResource(sim, cores=1)
        with pytest.raises(ValueError):
            list(cpu.execute(-1.0))
        assert cpu.in_use == 0

    def test_free_core_grant_pushes_one_agenda_entry(self, sim):
        cpu = CpuResource(sim, cores=1)
        pushed = []

        def job():
            before = sim._sequence
            yield from cpu.execute(1.0)
            pushed.append(sim._sequence - before)

        sim.process(job())
        sim.run()
        # Only the service timeout: the grant itself is synchronous.
        assert pushed == [1]

    def test_queued_run_pushes_one_agenda_entry(self, sim):
        cpu = CpuResource(sim, cores=1)
        cpu.run(1.0)  # holds the core for [0, 1)
        before = sim._sequence
        queued = cpu.run(2.0)
        # The completion at t=3, pushed at submit; nothing runs at t=1.
        assert sim._sequence - before == 1
        sim.run()
        assert sim._sequence - before == 1
        assert queued.processed and sim.now == 3.0 and queued.value == 3.0
        assert cpu.busy_time() == pytest.approx(3.0)

    def test_run_frees_the_core_before_the_waiter_resumes(self, sim):
        cpu = CpuResource(sim, cores=1)
        seen = []

        def job():
            yield cpu.run(1.0)
            seen.append(cpu.in_use)

        sim.process(job())
        sim.run()
        assert seen == [0]

    def test_run_rejects_bad_service_time_on_a_busy_cpu(self, sim):
        cpu = CpuResource(sim, cores=1)
        cpu.run(1.0)
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                cpu.run(bad)
        assert cpu.in_use == 1
        # The core's free time is untouched: the next job queues behind
        # the first one alone.
        assert cpu.run(1.0).value == 2.0

    @pytest.mark.parametrize("argument", ["service_time", "after_s"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1.0])
    def test_run_rejects_non_finite_or_negative(self, sim, argument, bad):
        cpu = CpuResource(sim, cores=1)
        with pytest.raises(ValueError, match=argument):
            cpu.run(**{"service_time": 1.0, "after_s": 0.0, argument: bad})
        assert sim._sequence == 0 and cpu.busy_time() == 0.0
        sim.run()
        assert sim.now == 0.0

    @pytest.mark.parametrize("cores", [1.5, True, False, 0, -1, "2", 2.0])
    def test_cores_must_be_an_int_of_at_least_one(self, sim, cores):
        with pytest.raises(ValueError, match="cores"):
            CpuResource(sim, cores=cores)

    @pytest.mark.parametrize("queued_on", ["run", "execute"])
    def test_timeout_pushed_before_start_wins_the_tie(self, sim, queued_on):
        """Queued work pushes its completion when it is submitted, not
        when a core passes to it. At the instant it ends, a timeout
        pushed before the submit fires first; one pushed after the
        submit, even before the work starts, fires after it."""
        cpu = CpuResource(sim, cores=1)
        log = []

        def logged(label):
            return lambda _event: log.append((label, sim.now))

        def holder():
            sim.timeout(3.0).add_callback(logged("early timeout"))
            yield from cpu.execute(1.0)
            # The queued job's work starts now; its end is long pushed.
            sim.timeout(2.0).add_callback(logged("late timeout"))

        def queued():
            if queued_on == "run":
                yield cpu.run(2.0)
            else:
                yield from cpu.execute(2.0)
            log.append(("queued", sim.now))

        sim.process(holder())
        sim.process(queued())
        sim.run()
        assert log == [("early timeout", 3.0), ("queued", 3.0),
                       ("late timeout", 3.0)]

    def test_interrupt_ends_the_wait_not_the_work(self, sim):
        cpu = CpuResource(sim, cores=1)
        log = []

        def job(name, service_time):
            try:
                yield from cpu.execute(service_time)
                log.append((name, "done", sim.now))
            except Interrupt:
                log.append((name, "interrupted", sim.now))

        holder = sim.process(job("a", 5.0))
        sim.process(job("b", 1.0))

        def interrupter():
            yield sim.timeout(1.0)
            holder.interrupt("preempt")

        sim.process(interrupter())
        sim.run()
        # a's work holds the core to t=5 after its waiter has gone.
        assert log == [("a", "interrupted", 1.0), ("b", "done", 6.0)]
        assert cpu.busy_time() == pytest.approx(6.0)

    @pytest.mark.parametrize("queued", [False, True])
    def test_busy_time_matches_for_both_grants(self, sim, queued):
        cpu = CpuResource(sim, cores=1)
        if queued:
            sim.process(cpu.execute(1.0))  # holds the core for [0, 1)
        job = sim.process(cpu.execute(2.0))
        sim.run(until=4.0)
        start = 1.0 if queued else 0.0
        assert job.processed
        assert cpu.busy_time() == pytest.approx(start + 2.0)


class _ClaimQueueCpu:
    """The claim-queue FIFO CPU that virtual time replaced, as a
    reference: a busy-core count, a FIFO of ``(event, service_time)``,
    the core given back in a completion callback and handed to queued
    work through a zero-delay call that pushes its completion, and a
    running busy-time integral."""

    def __init__(self, sim, cores):
        self.sim, self.cores = sim, cores
        self._busy, self._queue = 0, deque()
        self._integral, self._last = 0.0, sim.now

    def busy_time(self):
        return self._integral + self._busy * (self.sim.now - self._last)

    def _mark(self):
        self._integral, self._last = self.busy_time(), self.sim.now

    def run(self, service_time):
        if self._busy < self.cores:
            self._mark()
            self._busy += 1
            done = Timeout(self.sim, service_time)
        else:
            done = Event(self.sim)
            self._queue.append((done, service_time))
        done.callbacks.append(self._finish)
        return done

    def _finish(self, _done):
        self._mark()
        if self._queue:
            self.sim._schedule_call(self._start, self._queue.popleft())
        else:
            self._busy -= 1

    def _start(self, item):
        done, service_time = item
        done.succeed(None, service_time)


def _arrivals(rng, cores, service):
    """``(time, service_time, after_s)`` jobs, a fifth of them arriving
    at exactly the previous job's instant. The first 200 come at three
    times capacity, so queued work ends at more than twice its submit
    time, where ``now + (end - now)`` can round away from ``end``; the
    rest come at 60 % load and drain the queue."""
    jobs, now = [], 0.0
    for _ in range(600):
        if not jobs or rng.random() >= 0.2:
            load = 3.0 if len(jobs) < 200 else 0.6
            now += rng.expovariate(load * cores / 0.01)
        service_time = (0.01 if service == "constant"
                        else rng.lognormvariate(math.log(0.01) - 0.32, 0.8))
        after_s = rng.choice((0.0, 0.0, rng.uniform(0.0, 0.02)))
        jobs.append((now, service_time, after_s))
    return jobs


class TestMatchesClaimQueueFifo:
    """Virtual-time ``run`` gives each job the completion float the
    claim-queue FIFO gave it, and the same busy time."""

    @staticmethod
    def _drive(make_cpu, jobs, probes, use_after):
        sim = Simulator(seed=0)
        cpu = make_cpu(sim)
        ends, wakes, busy = {}, {}, []

        def submit(index):
            _at, service_time, after_s = jobs[index]
            if use_after:
                done = cpu.run(service_time, after_s)
            else:
                done = cpu.run(service_time)
                after_s = 0.0
            done.callbacks.append(lambda event: wakes.__setitem__(
                index, (event.value, after_s, sim.now)))

        for index, (at, _service, _after) in enumerate(jobs):
            sim.call_later(at, submit, index)
        for at in probes:
            sim.call_later(at, lambda _arg: busy.append(cpu.busy_time()))
        sim.run()
        for index, (value, after_s, now) in wakes.items():
            ends[index] = now if value is None else value
        return ends, wakes, busy

    @pytest.mark.parametrize("cores", [1, 2, 8])
    @pytest.mark.parametrize("service", ["lognormal", "constant"])
    def test_completions_and_busy_time_match(self, cores, service):
        rng = random.Random(cores * 7919 + len(service))
        jobs = _arrivals(rng, cores, service)
        horizon = jobs[-1][0]
        probes = sorted(rng.uniform(0.0, horizon) for _ in range(50))
        ref_ends, _, ref_busy = self._drive(
            lambda sim: _ClaimQueueCpu(sim, cores), jobs, probes, False)
        ends, wakes, busy = self._drive(
            lambda sim: CpuResource(sim, cores=cores), jobs, probes, True)
        assert len(ref_ends) == len(jobs)
        # Bit for bit, and queueing happened.
        assert ends == ref_ends
        assert sum(ends[i] > jobs[i][0] + jobs[i][1]
                   for i in range(len(jobs))) > 50
        for index, (end, after_s, woke) in wakes.items():
            assert woke == end + after_s, index
        assert busy == pytest.approx(ref_busy, rel=1e-12)
