"""Tests for resources: semaphores, CPU accounting, stores."""

import pytest

from repro.simcore import CpuResource, Interrupt, Resource, Simulator, Store


@pytest.fixture
def sim():
    return Simulator(seed=0)


class TestResource:
    def test_capacity_validated(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grants_up_to_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        sim.run()
        assert first.processed and second.processed
        assert not third.triggered
        assert resource.queue_length == 1

    def test_release_grants_next_in_fifo_order(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(name, hold):
            with resource.request() as claim:
                yield claim
                order.append(name)
                yield sim.timeout(hold)

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.0))
        sim.process(worker("c", 1.0))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_release_is_idempotent(self, sim):
        resource = Resource(sim, capacity=1)
        claim = resource.request()
        sim.run()
        resource.release(claim)
        resource.release(claim)
        assert resource.in_use == 0

    def test_cancel_queued_request(self, sim):
        resource = Resource(sim, capacity=1)
        held = resource.request()
        queued = resource.request()
        sim.run()
        resource.release(queued)  # cancel while still waiting
        resource.release(held)
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_resize_grants_waiters(self, sim):
        resource = Resource(sim, capacity=1)
        resource.request()
        waiting = resource.request()
        sim.run()
        assert not waiting.triggered
        resource.resize(2)
        sim.run()
        assert waiting.processed


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
        assert cpu.utilization() == pytest.approx(1.0)

    def test_utilization_partial(self, sim):
        cpu = CpuResource(sim, cores=1)
        sim.process(cpu.execute(1.0))
        sim.run(until=4.0)
        assert cpu.utilization() == pytest.approx(0.25)

    def test_utilization_between_marks(self, sim):
        cpu = CpuResource(sim, cores=1)

        def scenario():
            cpu.mark()
            yield from cpu.execute(1.0)
            yield sim.timeout(1.0)
            cpu.mark()
            yield from cpu.execute(2.0)
            cpu.mark()

        sim.process(scenario())
        sim.run()
        windows = cpu.utilization_between_marks()
        assert windows[0][1] == pytest.approx(0.5)   # busy 1 of 2 s
        assert windows[1][1] == pytest.approx(1.0)   # busy 2 of 2 s

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
        assert cpu.utilization() == pytest.approx((start + 2.0) / 4.0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")
        claim = store.get()
        sim.run()
        assert claim.value == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def consumer():
            value = yield store.get()
            results.append((sim.now, value))

        def producer():
            yield sim.timeout(2.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert results == [(2.0, "late")]

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        first = store.get()
        second = store.get()
        sim.run()
        assert (first.value, second.value) == (1, 2)

    def test_len_reflects_contents(self, sim):
        store = Store(sim)
        assert len(store) == 0
        store.put("x")
        assert len(store) == 1
