"""Shared, capacity-limited resources for simulation processes.

Two building blocks cover everything the mesh models need:

* :class:`Resource` — a counting semaphore with a FIFO wait queue, used
  for anything with bounded concurrency.
* :class:`CpuResource` — a multi-core CPU that additionally tracks its
  busy-time integral, so experiments can report the CPU seconds a tier
  consumed. Proxy and gateway latency knees in the paper's figures
  emerge from queueing on these.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .events import Event
from .sim import Simulator

__all__ = ["Request", "Resource", "CpuResource"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Supports use as a context manager so model code can write::

        with cpu.request() as claim:
            yield claim
            yield sim.timeout(service_time)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)


class Resource:
    """A counting semaphore with FIFO granting.

    ``capacity`` slots may be held simultaneously; further requests queue
    in arrival order.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires once the slot is held."""
        claim = Request(self)
        if len(self.users) < self.capacity:
            self._grant(claim)
        else:
            self.queue.append(claim)
        return claim

    def release(self, claim: Request) -> None:
        """Return a slot (or cancel a queued claim). Idempotent."""
        if claim in self.users:
            self.users.remove(claim)
            self._on_change()
            while self.queue and len(self.users) < self.capacity:
                self._grant(self.queue.popleft())
        elif claim in self.queue:
            self.queue.remove(claim)

    def _grant(self, claim: Request) -> None:
        self.users.append(claim)
        self._on_change()
        claim.succeed(claim)

    def _on_change(self) -> None:
        """Hook for subclasses observing occupancy transitions."""


class CpuResource(Resource):
    """A multi-core CPU with busy-time accounting.

    ``cores`` maps to :attr:`capacity`. Each held slot is one busy core.
    The busy-time integral gives the core-seconds consumed, which the
    paper's resource figures report.
    """

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "cpu"):
        super().__init__(sim, capacity=cores)
        self.name = name
        self._busy_integral = 0.0
        self._last_change = sim.now
        self._level_since_last = 0

    def _on_change(self) -> None:
        now = self.sim.now
        # in_use has already been updated by the caller; integrate the
        # occupancy that held from the previous transition until now.
        # We therefore integrate *before* recording the new level, using
        # the level stored at the last transition.
        self._busy_integral += self._level_since_last * (now - self._last_change)
        self._last_change = now
        self._level_since_last = self.in_use

    def busy_time(self) -> float:
        """Total core-seconds consumed since creation (up to now)."""
        return self._busy_integral + self._level_since_last * (
            self.sim.now - self._last_change)

    def execute(self, service_time: float):
        """Process generator: occupy one core for ``service_time``.

        A free core is taken at once, with no agenda entry; only a claim
        that has to queue waits on an event. The core (or the queue
        slot) is given back however the generator ends, interrupts
        included.
        """
        claim = Request(self)
        try:
            if len(self.users) < self.capacity:
                self.users.append(claim)
                self._on_change()
            else:
                self.queue.append(claim)
                yield claim
            yield self.sim.timeout(service_time)
        finally:
            self.release(claim)
