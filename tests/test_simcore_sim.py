"""Simulator event loop: run-until boundary, firing order, delay
validation, and timeout construction."""

import random

import pytest

from repro.simcore import Simulator, Timeout

NAN = float("nan")


# ---------------------------------------------------------------------------
# the event loop.


def _mixed_workload(sim, log):
    """Jittered re-arming timers, a same-instant burst, zero-delay
    chains, and far-future timers past the horizon."""
    rng = random.Random(99)

    def rearm(event):
        log.append((sim.now, "tick", event.value))
        if sim.now < 25.0:
            sim.timeout(0.5 + rng.random(), event.value).add_callback(rearm)

    def burst(event):
        log.append((sim.now, "burst", event.value))

    def chain(event):
        sim.timeout(0.0, "z").add_callback(
            lambda ev: log.append((sim.now, "zero", ev.value)))

    for index in range(40):
        sim.timeout(rng.random() * 2.0, index).add_callback(rearm)
    for index in range(25):
        sim.timeout(5.0, 100 + index).add_callback(burst)
    for index in range(10):
        sim.timeout(3600.0 + rng.random() * 100.0,
                    200 + index).add_callback(burst)
    sim.timeout(1.0).add_callback(chain)


def _run_workload():
    sim = Simulator(seed=1)
    log = []
    _mixed_workload(sim, log)
    sim.run(until=30.0)
    return sim, log


class TestEventLoop:
    def test_mixed_workload_log(self):
        sim, log = _run_workload()
        assert len(log) > 500
        assert sim.now == 30.0
        times = [entry[0] for entry in log]
        assert times == sorted(times)
        # The same-instant burst fires in scheduling (seq) order.
        bursts = [entry[2] for entry in log if entry[1] == "burst"]
        assert bursts == list(range(100, 125))
        assert log == _run_workload()[1]

    def test_run_until_boundary(self):
        sim = Simulator()
        fired = []
        sim.timeout(1.0, "a").add_callback(lambda ev: fired.append(ev.value))
        sim.timeout(2.0, "b").add_callback(lambda ev: fired.append(ev.value))
        sim.timeout(2.5, "c").add_callback(lambda ev: fired.append(ev.value))
        sim.run(until=2.0)
        assert fired == ["a", "b"]  # events at exactly `until` fire
        assert sim.now == 2.0
        with pytest.raises(ValueError):
            sim.run(until=1.0)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_fires_by_time_then_sequence(self):
        sim = Simulator()
        fired = []
        for index, delay in enumerate((2.0, 1.0, 1.0)):
            sim.timeout(delay, (delay, index)).add_callback(
                lambda ev: fired.append(ev.value))
        sim.run(until=1.0)
        assert fired == [(1.0, 1), (1.0, 2)]  # both 1.0 entries, in seq order
        assert sim.now == 1.0
        sim.run()
        assert [value[0] for value in fired] == [1.0, 1.0, 2.0]
        assert sim.now == 2.0
        sim.run()  # an empty agenda returns at once
        assert sim.now == 2.0


# ---------------------------------------------------------------------------
# NaN delays and horizons: ``delay < 0`` lets NaN through, and a NaN
# entry corrupts the heap order, silently losing valid events.


def _via_sim_timeout(sim, delay, fired):
    sim.timeout(delay, delay).add_callback(lambda ev: fired.append(ev.value))


def _via_timeout_class(sim, delay, fired):
    Timeout(sim, delay, delay).add_callback(
        lambda ev: fired.append(ev.value))


def _via_call_later(sim, delay, fired):
    sim.call_later(delay, fired.append, delay)


def _via_event_succeed(sim, delay, fired):
    event = sim.event()
    event.add_callback(lambda ev: fired.append(ev.value))
    event.succeed(delay, delay=delay)


class TestNanRejected:
    @pytest.mark.parametrize("schedule", [
        _via_sim_timeout, _via_timeout_class, _via_call_later,
        _via_event_succeed,
    ], ids=["sim.timeout", "Timeout", "call_later", "Event.succeed"])
    def test_nan_delay_rejected(self, schedule):
        sim = Simulator(seed=0)
        fired = []
        schedule(sim, 3.0, fired)
        with pytest.raises(ValueError, match="nan"):
            schedule(sim, NAN, fired)
        schedule(sim, 1.0, fired)
        schedule(sim, 2.0, fired)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]  # no valid event was lost

    def test_nan_until_rejected(self):
        sim = Simulator(seed=0)
        sim.timeout(1.0)
        with pytest.raises(ValueError, match="nan"):
            sim.run(until=NAN)
        assert sim.now == 0.0
        sim.run()
        assert sim.now == 1.0


# ---------------------------------------------------------------------------
# the two ways to make a timeout.


_TIMEOUT_FIELDS = ("_value", "_ok", "_defused", "delay", "callbacks")


class TestTimeoutConstruction:
    def test_constructor_paths_identical_state(self):
        sim_a, sim_b = Simulator(seed=0), Simulator(seed=0)
        public = Timeout(sim_a, 2.5, "payload")
        fast = sim_b.timeout(2.5, "payload")
        for name in _TIMEOUT_FIELDS:
            assert getattr(public, name) == getattr(fast, name), name
        assert public.delay == fast.delay == 2.5
        assert public._value == fast._value == "payload"
        assert public._ok is fast._ok is True
        assert public._defused is fast._defused is False
        assert public.callbacks == fast.callbacks == []
        assert public.sim is sim_a and fast.sim is sim_b
        # Both paths actually scheduled the event.
        for sim, timeout in ((sim_a, public), (sim_b, fast)):
            fired = []
            timeout.add_callback(lambda ev: fired.append(sim.now))
            sim.run()
            assert fired == [2.5]

    def test_held_timeout_keeps_value_after_firing(self):
        sim = Simulator(seed=0)
        held = sim.timeout(1.0, "keep")
        sim.run()
        assert held.processed
        assert held.value == "keep"

    def test_negative_delay_rejected_on_both_paths(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            sim.timeout(-1.0)
        with pytest.raises(ValueError):
            Timeout(sim, -1.0)


# ---------------------------------------------------------------------------
# process ends: an unwatched end takes no agenda entry.


class TestProcessEnd:
    def test_unwatched_end_consumes_no_sequence(self):
        sim = Simulator(seed=0)

        def body():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(body())
        sim.run()
        assert sim._sequence == 2  # the bootstrap and the timeout only
        assert proc.processed and proc.ok and proc.value == "done"
        assert not proc.is_alive

    def test_yield_ended_process_resumes_at_same_instant(self):
        sim = Simulator(seed=0)
        seen = []

        def child():
            yield sim.timeout(1.0)
            return 42

        def parent(proc):
            yield sim.timeout(2.0)
            assert proc.processed
            asked_at = sim.now
            value = yield proc
            seen.append((asked_at, sim.now, value))

        sim.process(parent(sim.process(child())))
        sim.run()
        assert seen == [(2.0, 2.0, 42)]

    def test_unwatched_failure_still_raises(self):
        sim = Simulator(seed=0)

        def body():
            yield sim.timeout(1.0)
            raise KeyError("boom")

        proc = sim.process(body())
        with pytest.raises(KeyError, match="boom"):
            sim.run()
        assert sim.now == 1.0
        assert proc.processed and not proc.ok

    def test_all_of_over_ended_and_running_processes(self):
        sim = Simulator(seed=0)
        got = []

        def child(delay, value):
            yield sim.timeout(delay)
            return value

        def parent(children):
            yield sim.timeout(2.0)
            assert [c.processed for c in children] == [True, False, True,
                                                        False]
            got.append((yield sim.all_of(children)))

        children = [sim.process(child(delay, value))
                    for delay, value in ((1.0, "a"), (3.0, "b"),
                                         (0.5, "c"), (4.0, "d"))]
        sim.process(parent(children))
        sim.run()
        assert got == [["a", "b", "c", "d"]]
        assert sim.now == 4.0

    def test_watched_end_wakes_waiter_in_its_entry_slot(self):
        """A waited-on process ends through its own ``(when, seq)``
        entry: after entries already queued for that instant, before
        entries pushed later at that instant."""
        sim = Simulator(seed=0)
        log = []

        def child():
            yield sim.timeout(1.0)
            log.append("child-ends")

        def waiter(proc):
            yield proc
            log.append("waiter")

        def bystander():
            yield sim.timeout(1.0)
            log.append("bystander")
            sim.call_later(0.0, log.append, "bystander-later")

        sim.process(waiter(sim.process(child())))
        sim.process(bystander())
        sim.run()
        assert log == ["child-ends", "bystander", "waiter",
                       "bystander-later"]
