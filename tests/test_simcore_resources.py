"""Tests for the CPU resource: queueing and busy-time accounting."""

import pytest

from repro.simcore import CpuResource, Interrupt, Simulator


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

    def test_queued_run_pushes_two_agenda_entries(self, sim):
        cpu = CpuResource(sim, cores=1)
        cpu.run(1.0)  # holds the core for [0, 1)
        before = sim._sequence
        queued = cpu.run(2.0)
        assert sim._sequence == before  # queueing pushes nothing
        sim.run()
        # The grant at t=1, then the completion at t=3; the holder's
        # completion was pushed before ``before``.
        assert sim._sequence - before == 2
        assert queued.processed and sim.now == pytest.approx(3.0)
        assert cpu.busy_time() == pytest.approx(3.0)

    def test_run_frees_the_core_before_the_waiter_resumes(self, sim):
        cpu = CpuResource(sim, cores=1)
        seen = []

        def job():
            yield cpu.run(1.0)
            seen.append((cpu.in_use, cpu.queue_length))

        sim.process(job())
        sim.run()
        assert seen == [(0, 0)]

    def test_run_rejects_bad_service_time_on_a_busy_cpu(self, sim):
        cpu = CpuResource(sim, cores=1)
        cpu.run(1.0)
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                cpu.run(bad)
        assert cpu.in_use == 1 and cpu.queue_length == 0

    @pytest.mark.parametrize("queued_on", ["run", "execute"])
    def test_timeout_pushed_before_start_wins_the_tie(self, sim, queued_on):
        """Queued work pushes its completion from its start call, one
        zero-delay step after the grant. A timeout pushed between the
        two, ending at the same instant, fires first."""
        cpu = CpuResource(sim, cores=1)
        log = []

        def holder():
            yield from cpu.execute(1.0)
            # Runs after the core passed to the queued job (its start
            # call is pushed) and before that call runs.
            sim.timeout(2.0).add_callback(
                lambda _event: log.append(("timeout", sim.now)))

        def queued():
            if queued_on == "run":
                yield cpu.run(2.0)
            else:
                yield from cpu.execute(2.0)
            log.append(("queued", sim.now))

        sim.process(holder())
        sim.process(queued())
        sim.run()
        assert log == [("timeout", 3.0), ("queued", 3.0)]

    def test_interrupt_between_grant_and_start_passes_the_core_on(self, sim):
        cpu = CpuResource(sim, cores=1)
        log = []
        sim.process(self._logged_job(sim, cpu, log, "a", 1.0))
        granted = sim.process(self._logged_job(sim, cpu, log, "b", 1.0))
        sim.process(self._logged_job(sim, cpu, log, "c", 1.0))

        def interrupter():
            yield sim.timeout(1.0)
            # a's completion has run: b holds the core, start pending.
            assert cpu.in_use == 1 and cpu.queue_length == 1
            granted.interrupt("cancel")

        sim.process(interrupter())
        sim.run()
        assert log == [("a", "done", 1.0), ("b", "interrupted", 1.0),
                       ("c", "done", 2.0)]
        assert cpu.in_use == 0 and cpu.queue_length == 0
        assert cpu.busy_time() == pytest.approx(2.0)

    @staticmethod
    def _logged_job(sim, cpu, log, name, service_time):
        try:
            yield from cpu.execute(service_time)
            log.append((name, "done", sim.now))
        except Interrupt:
            log.append((name, "interrupted", sim.now))

    def test_interrupt_while_queued_leaves_the_queue(self, sim):
        cpu = CpuResource(sim, cores=1)
        log = []
        sim.process(self._logged_job(sim, cpu, log, "a", 2.0))
        queued = sim.process(self._logged_job(sim, cpu, log, "b", 1.0))
        sim.process(self._logged_job(sim, cpu, log, "c", 1.0))

        def interrupter():
            yield sim.timeout(0.5)
            assert cpu.queue_length == 2
            queued.interrupt("cancel")
            yield sim.timeout(0.1)
            assert cpu.queue_length == 1

        sim.process(interrupter())
        sim.run()
        assert log == [("b", "interrupted", 0.5), ("a", "done", 2.0),
                       ("c", "done", 3.0)]
        assert cpu.in_use == 0 and cpu.queue_length == 0
        assert cpu.busy_time() == pytest.approx(3.0)

    def test_interrupt_mid_service_frees_the_core_at_once(self, sim):
        cpu = CpuResource(sim, cores=1)
        log = []
        holder = sim.process(self._logged_job(sim, cpu, log, "a", 5.0))
        sim.process(self._logged_job(sim, cpu, log, "b", 1.0))

        def interrupter():
            yield sim.timeout(1.0)
            holder.interrupt("preempt")

        sim.process(interrupter())
        sim.run(until=3.0)
        # b took the core at t=1.0, the instant a was interrupted.
        assert log == [("a", "interrupted", 1.0), ("b", "done", 2.0)]
        assert cpu.in_use == 0
        assert cpu.busy_time() == pytest.approx(2.0)

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
