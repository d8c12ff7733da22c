"""Circuit breaker: closed/open/half-open on a rolling error rate.

The breaker watches dispatch outcomes for one service over a sliding
window. While CLOSED it admits everything; once the windowed error
rate reaches the threshold (with enough volume to mean something) it
OPENs and fast-fails dispatch for ``open_duration_s``; then it lets a
bounded number of HALF_OPEN probes through, closing again only after
``close_after`` consecutive probe successes. A probe failure re-opens
immediately.

The legal transition edges::

    closed    -> open        (windowed error rate tripped)
    open      -> half_open   (cooldown expired)
    half_open -> closed      (probe successes reached close_after)
    half_open -> open        (a probe failed)

Every transition is appended to :attr:`CircuitBreaker.transitions`;
the :class:`~repro.faults.InvariantAuditor` replays that log and
raises on any edge outside this set or any time regression — a
breaker that "recovers" without passing through half-open is a bug in
the mesh, not a lucky break.

Everything here is a pure function of (config, call order, call
times): no randomness, no wall clock.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

__all__ = [
    "BREAKER_STATES",
    "BreakerConfig",
    "BreakerIllegalTransition",
    "CircuitBreaker",
    "QOD_FAILURES_PER_CRASH",
    "contained_cascade_depth",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

BREAKER_STATES = (CLOSED, OPEN, HALF_OPEN)

#: The legal (from, to) edges of the breaker state machine.
LEGAL_TRANSITIONS = frozenset([
    (CLOSED, OPEN),
    (OPEN, HALF_OPEN),
    (HALF_OPEN, CLOSED),
    (HALF_OPEN, OPEN),
])


class BreakerIllegalTransition(AssertionError):
    """The breaker took an edge outside the legal state machine."""


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning of one circuit breaker."""

    #: Rolling window the error rate is computed over (virtual seconds).
    window_s: float = 30.0
    #: Minimum outcomes in the window before the breaker may trip —
    #: a volume threshold so one early failure cannot open it.
    min_requests: int = 5
    #: Windowed error-rate threshold in (0, 1] that opens the breaker.
    failure_threshold: float = 0.5
    #: Seconds the breaker stays OPEN before probing.
    open_duration_s: float = 30.0
    #: Consecutive half-open probe successes required to close.
    close_after: int = 2

    def __post_init__(self):
        # Non-finite times are refused: a NaN cooldown would hold an
        # opened breaker open forever.
        for name in ("window_s", "open_duration_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and > 0, got {value}")
        if self.min_requests < 1:
            raise ValueError(
                f"min_requests must be >= 1, got {self.min_requests}")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(f"failure_threshold must be in (0, 1], "
                             f"got {self.failure_threshold}")
        if self.close_after < 1:
            raise ValueError(
                f"close_after must be >= 1, got {self.close_after}")


class CircuitBreaker:
    """One service's dispatch gate."""

    def __init__(self, config: BreakerConfig = BreakerConfig(),
                 name: str = ""):
        self.config = config
        self.name = name
        self.state = CLOSED
        self.opened_at = 0.0
        #: (t, from_state, to_state, reason) — audited for legality.
        self.transitions: List[Tuple[float, str, str, str]] = []
        #: Rolling (t, ok) outcomes inside the window.
        self._window: Deque[Tuple[float, bool]] = deque()
        self._half_open_successes = 0
        self.fast_failures = 0
        self.times_opened = 0

    # -- state machine -------------------------------------------------------
    def _transition(self, now: float, to_state: str, reason: str) -> None:
        self.transitions.append((now, self.state, to_state, reason))
        self.state = to_state
        if to_state == OPEN:
            self.opened_at = now
            self.times_opened += 1
        elif to_state == HALF_OPEN:
            self._half_open_successes = 0

    def allow(self, now: float) -> bool:
        """May one dispatch proceed at virtual time ``now``?

        An OPEN breaker whose cooldown has expired moves to HALF_OPEN
        here (lazily — there is no timer process to keep deterministic
        order simple) and admits the probe.
        """
        if self.state == OPEN:
            if now - self.opened_at >= self.config.open_duration_s:
                self._transition(now, HALF_OPEN, "cooldown expired")
                return True
            self.fast_failures += 1
            return False
        return True

    def record_success(self, now: float, count: int = 1) -> None:
        for _ in range(count):
            self._record(now, ok=True)

    def record_failure(self, now: float, count: int = 1) -> None:
        for _ in range(count):
            self._record(now, ok=False)

    def _record(self, now: float, ok: bool) -> None:
        if self.state == HALF_OPEN:
            if ok:
                self._half_open_successes += 1
                if self._half_open_successes >= self.config.close_after:
                    self._window.clear()
                    self._transition(now, CLOSED, "probe successes")
            else:
                self._transition(now, OPEN, "probe failed")
            return
        self._window.append((now, ok))
        self._prune(now)
        if self.state == CLOSED and self._tripped():
            self._transition(
                now, OPEN,
                f"error rate {self.error_rate():.2f} >= "
                f"{self.config.failure_threshold:g} "
                f"over {len(self._window)} requests")

    def _prune(self, now: float) -> None:
        horizon = now - self.config.window_s
        window = self._window
        while window and window[0][0] < horizon:
            window.popleft()

    def _tripped(self) -> bool:
        if len(self._window) < self.config.min_requests:
            return False
        return self.error_rate() >= self.config.failure_threshold

    def error_rate(self) -> float:
        """Windowed error fraction (0.0 when the window is empty)."""
        if not self._window:
            return 0.0
        failures = sum(1 for _t, ok in self._window if not ok)
        return failures / len(self._window)

    def audit_transitions(self) -> None:
        """Raise unless every recorded transition is a legal edge.

        Called by the fault subsystem's invariant auditor after each
        injection/recovery step.
        """
        last_t = None
        for t, from_state, to_state, reason in self.transitions:
            if (from_state, to_state) not in LEGAL_TRANSITIONS:
                raise BreakerIllegalTransition(
                    f"breaker {self.name or '?'}: illegal transition "
                    f"{from_state} -> {to_state} at t={t:g} ({reason})")
            if last_t is not None and t < last_t:
                raise BreakerIllegalTransition(
                    f"breaker {self.name or '?'}: transition time went "
                    f"backwards ({last_t:g} -> {t:g})")
            last_t = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CircuitBreaker {self.name or '?'} state={self.state} "
                f"error_rate={self.error_rate():.2f}>")


#: Windowed failures one crashed backend feeds its service's breaker
#: during a query-of-death cascade: the DES fault engine
#: (``FaultEngine._query_of_death``) records this many dispatch
#: errors per poisoned backend, and :func:`contained_cascade_depth`
#: must be given the same count to predict the cascade's depth.
QOD_FAILURES_PER_CRASH = 3


def contained_cascade_depth(backends: int, failures_per_backend: int,
                            config: BreakerConfig) -> int:
    """How many backends a query-of-death crashes before the breaker trips.

    The aggregate (fluid-tier) analogue of driving a
    :class:`CircuitBreaker` through a cascade: each poisoned backend
    contributes ``failures_per_backend`` windowed failures, and the
    cascade halts once the breaker opens. With no breaker semantics
    (``backends`` small, threshold never reached) the answer is all of
    them — exactly the uncontained baseline. O(1) per backend, cheap
    enough for fleet-tier sweeps to call per service.
    """
    if backends < 0 or failures_per_backend < 1:
        raise ValueError("need backends >= 0 and failures_per_backend >= 1")
    breaker = CircuitBreaker(config)
    crashed = 0
    for _ in range(backends):
        if not breaker.allow(0.0):
            break
        crashed += 1
        breaker.record_failure(0.0, count=failures_per_backend)
    return crashed
