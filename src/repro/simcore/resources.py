"""The one capacity-limited resource simulation processes share.

:class:`CpuResource` is a multi-core FIFO server whose unit of work is
one service time. It runs in virtual time: each core keeps the time it
next falls idle, so work learns its end when it is submitted, and
:meth:`CpuResource.run` pushes one agenda entry for it, whether it
found a free core or queued. ``run(t, after_s=d)`` wakes its waiter
``d`` after the work ends, so CPU work and the fixed delay after it
are one wait. Busy time (the core-seconds a tier consumed) is derived
from the assigned work and the cores' idle times. Proxy and gateway
latency knees in the paper's figures emerge from queueing on these.
With one core it is a FIFO server: a link's channel, the control
plane's distributor.
"""

from __future__ import annotations

from heapq import heappush, heapreplace

from .events import Event
from .sim import Simulator

__all__ = ["CpuResource"]

_INF = float("inf")


class _Completion(Event):
    """A pre-triggered event at an absolute time, valued with the time
    its work ended; it pushes itself as :class:`Timeout` does."""

    __slots__ = ()

    def __init__(self, sim: Simulator, when: float, end: float):
        self.sim = sim
        self.callbacks = []
        self._value = end
        self._ok = True
        self._defused = False
        sim._sequence += 1
        heappush(sim._heap, (when, sim._sequence, None, self))


class CpuResource:
    """A multi-core FIFO CPU with busy-time accounting.

    Work is a service time on one core: :meth:`run` gives it the
    earliest-free core, so it starts at ``max(now, free)`` and ends
    ``service_time`` later. That is the completion time a FIFO of
    waiting work would give it, to the float: a queued job's start is
    the previous job's end on that core. The event ``run`` returns is
    pushed at submit, for its absolute time, so queued work takes one
    agenda entry and nothing runs when a core falls idle.

    Work once submitted is never withdrawn: an interrupted waiter stops
    waiting, and the core still does the work.
    """

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "cpu"):
        if isinstance(cores, bool) or not isinstance(cores, int) or cores < 1:
            raise ValueError(f"cores must be an int >= 1, got {cores!r}")
        self.sim = sim
        self.cores = cores
        self.name = name
        #: When each core next falls idle, as a heap: the earliest-free
        #: core is ``[0]``.
        self._free = [sim.now] * cores
        #: Total service time ever submitted.
        self._assigned = 0.0

    @property
    def in_use(self) -> int:
        """Number of busy cores."""
        now = self.sim.now
        return sum(1 for free in self._free if free > now)

    def busy_time(self) -> float:
        """Total core-seconds consumed since creation (up to now).

        Every job was submitted at or before now, so a core is busy
        without a gap from now until it falls idle: the work not yet
        done is that stretch on each core.
        """
        now = self.sim.now
        return self._assigned - sum(free - now for free in self._free
                                    if free > now)

    def run(self, service_time: float, after_s: float = 0.0) -> Event:
        """Occupy one core for ``service_time``; returns the event that
        fires ``after_s`` after the work ends, valued with the time the
        work ended."""
        if not 0.0 <= service_time < _INF:  # also rejects NaN
            raise ValueError(
                f"service_time must be finite and >= 0, got {service_time!r}")
        if not 0.0 <= after_s < _INF:
            raise ValueError(
                f"after_s must be finite and >= 0, got {after_s!r}")
        sim = self.sim
        free = self._free
        start = free[0]
        if start < sim.now:
            start = sim.now
        end = start + service_time
        heapreplace(free, end)
        self._assigned += service_time
        return _Completion(sim, end + after_s, end)

    def execute(self, service_time: float):
        """Process generator over :meth:`run`: occupy one core for
        ``service_time``. An interrupt ends the wait, not the work."""
        yield self.run(service_time)
