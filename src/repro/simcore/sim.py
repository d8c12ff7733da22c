"""The simulation kernel: a time-ordered agenda of events.

:class:`Simulator` owns the clock, the event agenda, and a seeded
random number generator, so that every experiment in this repository is
deterministic given its seed.

The agenda is a ``heapq`` binary heap (``self._heap``) of ``(when,
seq, call, event)`` tuples. ``seq`` is a strictly increasing
tie-breaker, so agenda ordering never compares the last two fields.
``call is None`` marks an ordinary event whose ``callbacks`` the loop
drains; otherwise the entry is a *direct call* (``call(event)``) — the
allocation-free path used for process bootstraps, late callbacks, and
interrupts (see ``events.py``). The C-implemented push/pop is the
whole engine: the largest exhibit peaks at tens of thousands of
pending entries, where no pure-Python structure beats it.

``run()`` is the one place that pops the agenda. The loop is the
hottest code in the repository, so it binds the heap and ``heappop``
to locals and dispatches each entry inline.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Generator, Optional

from .events import AllOf, AnyOf, Event, Process, Timeout

__all__ = ["Simulator"]


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`. Model code
        should draw all randomness from :attr:`rng` (or generators seeded
        from it) so runs are reproducible.
    """

    def __init__(self, seed: Optional[int] = 0):
        self.now: float = 0.0
        #: The construction seed, kept so subsystems can derive their
        #: own independent streams (rng.derived_stream) — e.g. trace
        #: sampling — without consuming draws from :attr:`rng`.
        self.seed = seed
        self.rng = random.Random(seed)
        #: The agenda: a ``heapq`` heap of ``(when, seq, call, event)``.
        self._heap: list = []
        #: Total agenda entries ever scheduled — also the agenda
        #: tie-breaker. ``benchmarks`` read this as the processed-event
        #: count after a run drains the agenda.
        self._sequence = 0

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        # ``not >=`` (rather than ``< 0``) also rejects NaN, which would
        # otherwise corrupt the heap order and silently drop events.
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self._sequence += 1
        heapq.heappush(self._heap,
                       (self.now + delay, self._sequence, None, event))

    def _schedule_call(self, call, event: Any, delay: float = 0.0) -> None:
        """Schedule ``call(event)`` — no Event allocated, nothing drained."""
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self._sequence += 1
        heapq.heappush(self._heap,
                       (self.now + delay, self._sequence, call, event))

    def call_later(self, delay: float, call, arg: Any = None) -> None:
        """Schedule ``call(arg)`` at ``now + delay`` on the direct-call path.

        The public face of the allocation-free agenda entry: no
        :class:`Event` is created, nothing can be waited on, and the
        loop invokes ``call(arg)`` directly when the entry fires. This
        is the right primitive for fixed-step model updates (the fluid
        tier in ``repro.fleet`` schedules every flow step through it)
        and other fire-and-forget callbacks: entries are plain 4-tuples
        that the loop dispatches without touching any Event.

        Callbacks fire in ``(when, seq)`` order like everything else;
        exceptions propagate out of :meth:`run`. Unlike
        event callbacks there is no cancellation handle — model code
        that needs to cancel should keep its own epoch/generation
        counter and no-op stale firings.
        """
        self._schedule_call(call, arg, delay)

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a process driving ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """An event that fires when every event in ``events`` succeeds."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event that fires when the first event in ``events`` fires."""
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the agenda is empty or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier, so utilization
        windows line up with experiment horizons.
        """
        if until is not None:
            if until != until:
                raise ValueError(f"until must be a time, got {until!r}")
            if until < self.now:
                raise ValueError(
                    f"until={until} is in the past (now={self.now})")
        heap = self._heap
        limit = float("inf") if until is None else until
        pop = heapq.heappop
        while heap and heap[0][0] <= limit:
            when, _seq, call, event = pop(heap)
            self.now = when
            if call is not None:
                call(event)
                continue
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        if until is not None:
            self.now = until
