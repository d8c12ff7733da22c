"""Shared, capacity-limited resources for simulation processes.

Three building blocks cover everything the mesh models need:

* :class:`Resource` — a counting semaphore with a FIFO wait queue, used
  for anything with bounded concurrency.
* :class:`CpuResource` — a multi-core CPU that additionally tracks its
  busy-time integral, so experiments can report utilization over any
  window. Proxy and gateway latency knees in the paper's figures emerge
  from queueing on these.
* :class:`Store` — an unbounded FIFO hand-off channel between processes
  (used e.g. for batch queues in the AVX-512 accelerator model).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .events import Event
from .sim import Simulator

__all__ = ["Request", "Resource", "CpuResource", "Store"]


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

    def resize(self, capacity: int) -> None:
        """Change capacity; newly freed slots are granted immediately."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        while self.queue and len(self.users) < self.capacity:
            self._grant(self.queue.popleft())


class CpuResource(Resource):
    """A multi-core CPU with busy-time accounting.

    ``cores`` maps to :attr:`capacity`. Each held slot is one busy core.
    The busy-time integral lets callers compute average utilization over
    arbitrary windows, which the paper's resource figures report.
    """

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "cpu"):
        super().__init__(sim, capacity=cores)
        self.name = name
        self._busy_integral = 0.0
        self._last_change = sim.now
        self._level_since_last = 0
        self._window_marks: List[Tuple[float, float]] = []

    @property
    def cores(self) -> int:
        return self.capacity

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

    def mark(self) -> None:
        """Record a measurement mark (for windowed utilization)."""
        self._window_marks.append((self.sim.now, self.busy_time()))

    def utilization(self, since: float = 0.0) -> float:
        """Average utilization in [since, now] as a 0..1 fraction."""
        horizon = self.sim.now - since
        if horizon <= 0:
            return 0.0
        busy_at_since = self._busy_at(since)
        return (self.busy_time() - busy_at_since) / (horizon * self.cores)

    def utilization_between_marks(self) -> List[Tuple[float, float]]:
        """Per-interval utilization between consecutive ``mark()`` calls."""
        points = []
        marks = self._window_marks
        for (t0, b0), (t1, b1) in zip(marks, marks[1:]):
            if t1 > t0:
                points.append((t1, (b1 - b0) / ((t1 - t0) * self.cores)))
        return points

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

    def _busy_at(self, when: float) -> float:
        # Linear interpolation is exact when no transition happened in
        # (when, last_change); good enough for windowed reporting.
        if when <= 0:
            return 0.0
        if when >= self._last_change:
            return self._busy_integral + self._level_since_last * (
                when - self._last_change)
        # Fall back to proportional estimate before the last transition.
        if self._last_change == 0:
            return 0.0
        return self._busy_integral * (when / self._last_change)


class Store:
    """An unbounded FIFO channel between producer and consumer processes."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if available)."""
        claim = Event(self.sim)
        if self._items:
            claim.succeed(self._items.popleft())
        else:
            self._getters.append(claim)
        return claim
