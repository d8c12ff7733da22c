"""The one capacity-limited resource simulation processes share.

:class:`CpuResource` is a multi-core server whose unit of work is one
service time. :meth:`CpuResource.run` returns the event its service
ends on, and the server tracks its busy-time integral, so experiments
can report the CPU seconds a tier consumed. Proxy and gateway latency
knees in the paper's figures emerge from queueing on these. With one
core it is a FIFO server: a link's channel, the control plane's
distributor.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from .events import PENDING, Event, Timeout
from .sim import Simulator

__all__ = ["CpuResource"]


class CpuResource:
    """A multi-core CPU with busy-time accounting.

    Work is a service time on one core: :meth:`run` returns the event
    that fires when it ends. The CPU keeps a busy-core count and a FIFO
    of ``(event, service_time)`` waiting for a core, so an op allocates
    one event and no claim. The busy-time integral gives the
    core-seconds consumed, which the paper's resource figures report.

    Agenda entries, which keep a claim-per-op CPU's ``(when, seq)``
    order: work that finds a free core takes it at once and pushes only
    its completion. Queued work that is handed a core starts through a
    zero-delay direct call, which pushes its completion: two entries,
    grant then end. The core is given back by a callback registered
    when the event is made, so it runs before any waiter resumes.
    """

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "cpu"):
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self.sim = sim
        self.cores = cores
        self.name = name
        self._busy = 0
        self._queue: Deque[Tuple[Event, float]] = deque()
        self._busy_integral = 0.0
        self._last_change = sim.now
        # Bound once: every op registers it on its completion event.
        self._finish_cb = self._finish

    @property
    def in_use(self) -> int:
        """Number of busy cores."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of work items waiting for a core."""
        return len(self._queue)

    def busy_time(self) -> float:
        """Total core-seconds consumed since creation (up to now)."""
        return self._busy_integral + self._busy * (
            self.sim.now - self._last_change)

    def run(self, service_time: float) -> Event:
        """Occupy one core for ``service_time``; returns the event that
        fires when the work ends (value ``None``)."""
        if self._busy < self.cores:
            # Validates the delay before the core is taken.
            done = Timeout(self.sim, service_time)
            now = self.sim.now
            self._busy_integral += self._busy * (now - self._last_change)
            self._last_change = now
            self._busy += 1
        else:
            if not service_time >= 0:  # also rejects NaN
                raise ValueError(
                    f"service time must be >= 0, got {service_time!r}")
            done = Event(self.sim)
            self._queue.append((done, service_time))
        done.callbacks.append(self._finish_cb)
        return done

    def _start(self, item: Tuple[Event, float]) -> None:
        done, service_time = item
        if done.callbacks is None:
            return  # cancelled between its grant and its start
        done.succeed(None, service_time)

    def _finish(self, _done: Event) -> None:
        now = self.sim.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        if self._queue:
            # Hand-off: the core passes straight on, the level holds.
            self.sim._schedule_call(self._start, self._queue.popleft())
        else:
            self._busy -= 1

    def _cancel(self, done: Event) -> None:
        """Withdraw work whose waiter has gone, freeing its core now."""
        callbacks = done.callbacks
        if callbacks is None:
            return  # already ended (or already cancelled)
        if done._value is PENDING:
            for item in self._queue:
                if item[0] is done:
                    self._queue.remove(item)
                    return
            # Granted a core, start call still pending: make it a no-op.
            done.callbacks = None
        else:
            # In service: its completion still fires, but frees nothing.
            callbacks.remove(self._finish_cb)
        self._finish(done)

    def execute(self, service_time: float):
        """Process generator over :meth:`run`: occupy one core for
        ``service_time``. If the generator ends early, interrupts
        included, the queue slot or the core is given back at once."""
        done = self.run(service_time)
        try:
            yield done
        finally:
            self._cancel(done)
