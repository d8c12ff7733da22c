"""Event primitives for the discrete-event simulation core.

The design follows the classic event/process pattern (as popularized by
simpy): an :class:`Event` is a one-shot value holder that fires at a
simulated time, and a :class:`Process` drives a Python generator that
yields events to wait on.

Events move through three states:

* *pending* — created, not yet triggered.
* *triggered* — a value (or failure) has been set and the event is
  scheduled on the simulator's agenda.
* *processed* — the simulator has popped the event and run its callbacks.

Callbacks added after processing are scheduled as a zero-delay *direct
call* on the agenda so that late subscribers still observe the result.
This makes ``yield some_event`` safe regardless of ordering, which keeps
model code simple.

A :class:`Process` whose generator returns while nothing waits on it
(its ``callbacks`` list is empty) skips the *triggered* state: it is
marked processed at once and takes no agenda entry. A later ``yield
proc``, ``add_callback`` or ``all_of`` sees a processed event and gets
a direct call at the current time. A process with a waiter still ends
through its own entry, so the waiter wakes in that entry's ``(when,
seq)`` slot; a process that *fails* always keeps its entry, so
``Simulator.run`` raises an unhandled failure at the same point.

Hot-path notes
--------------
The agenda holds ``(when, seq, call, event)`` entries.  ``call`` is
``None`` for ordinary events (the simulator drains ``event.callbacks``);
otherwise it is a plain callable invoked as ``call(event)`` with no
Event object behind it.  Direct calls carry the resume of a freshly
started :class:`Process` (eliminating the per-process bootstrap Event
allocation), late ``add_callback`` subscribers (eliminating the
trampoline Event), and interrupts.

Wait-target bookkeeping is *lazy*: a process never removes its
``_resume`` callback from an abandoned wait target (an O(n) list scan);
instead stale wake-ups are recognized in O(1) when the old target fires,
by comparing it against the process's current target.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class _Pending:
    """Sentinel marking an event that has not been triggered yet."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (not model failures)."""


class Interrupt(Exception):
    """Thrown into a process generator when it is interrupted.

    ``cause`` carries an arbitrary, model-defined payload describing why
    the interrupt happened (e.g. "migrated", "throttled").
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Init:
    """Singleton payload delivered to a process's very first resume."""

    __slots__ = ()
    _ok = True
    _value = None


_INIT = _Init()


class _Interrupted:
    """Payload delivering an :class:`Interrupt` into a process.

    Unlike ordinary wake-ups, interrupts are always delivered (the
    stale-target check in :meth:`Process._resume` lets them through),
    mirroring the eager-removal semantics the lazy bookkeeping replaced.
    """

    __slots__ = ("_value", "_defused")
    _ok = False

    def __init__(self, exception: Interrupt):
        self._value = exception
        self._defused = True


class Event:
    """A one-shot occurrence at a point in simulated time."""

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether a value or failure has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or the exception for failed events)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Set the event's value and schedule it after ``delay``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Fail the event with ``exception`` and schedule it."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event was already processed, the callback is scheduled to
        run at the current simulated time instead of being dropped.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            self.sim._schedule_call(callback, self)

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator won't raise."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    A timeout triggers itself: construction sets its value and pushes
    its entry onto the agenda, ``delay`` from now.
    ``Simulator.timeout()`` is the usual way to make one.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        # Pushed here rather than via ``sim._schedule``: timeouts are
        # the most-scheduled event, and the delay is already checked.
        sim._sequence += 1
        heappush(sim._heap, (sim.now + delay, sim._sequence, None, self))

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        raise SimulationError("Timeout events trigger themselves")


class Process(Event):
    """Drives a generator; the process event fires when the generator ends.

    The generator yields :class:`Event` instances. When a yielded event is
    processed, the generator resumes with the event's value (or the
    exception is thrown in for failed events).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, sim: "Simulator", generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        sim._schedule_call(self._resume, _INIT)

    @property
    def is_alive(self) -> bool:
        """Whether the generator is still running."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the generator at the current time.

        A wait target that already triggered (but was not yet processed)
        is suppressed: clearing ``_target`` makes its wake-up stale, so
        the interrupt is the next thing the generator observes.
        """
        if self.triggered:
            return
        self._target = None
        self.sim._schedule_call(self._resume, _Interrupted(Interrupt(cause)))

    def _resume(self, event) -> None:
        if self._value is not PENDING:
            # The process already ended (e.g. an interrupt raced with a
            # pending wait target); ignore stale wake-ups.
            return
        target = self._target
        if target is not event:
            cls = event.__class__
            if cls is _Interrupted:
                pass  # interrupts are always delivered
            elif cls is _Init and target is None:
                pass  # the bootstrap resume
            else:
                # A lazily-abandoned wait target fired; its callback was
                # never removed (O(1) bookkeeping) — drop it here.
                return
        self._target = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nothing waits: processed at once, with no agenda
                # entry. A later subscriber gets a direct call.
                self._ok = True
                self._value = stop.value
                self.callbacks = None
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        self._target = target
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume)
        else:
            self.sim._schedule_call(self._resume, target)


class AllOf(Event):
    """Fires once all child events succeed; value is the list of values.

    Fails as soon as any child fails (with that child's exception).
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._events:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child._ok:
            child._defused = True
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([event._value for event in self._events])


class AnyOf(Event):
    """Fires when the first child event triggers.

    Value is a ``(event, value)`` tuple identifying the winner. A failing
    first child fails this condition.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        for child in self._events:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child._ok:
            self.succeed((child, child._value))
        else:
            child._defused = True
            self.fail(child._value)
