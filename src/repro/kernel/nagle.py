"""Nagle-style small-message aggregation (RFC 896).

The kernel TCP stack enables Nagle by default, coalescing small writes
into MSS-sized segments. The paper found that eBPF sockmap redirection
bypasses the kernel stack and therefore loses this aggregation, blowing
up the context-switch frequency for small messages (Fig 22) — their fix
was to re-implement Nagle in eBPF before redirection (§4.1.2). Both the
kernel's aggregation and the eBPF re-implementation use this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["NagleConfig", "NagleBuffer", "batch_factor"]


@dataclass(frozen=True)
class NagleConfig:
    """Aggregation parameters."""

    mss_bytes: int = 1460
    #: Upper bound on how long a message may sit waiting for company.
    #: Real Nagle is ACK-clocked (one in-flight small segment at a time),
    #: which with delayed ACKs gives an effective ~1 ms window; a fixed
    #: delay is the standard fluid approximation.
    flush_delay_s: float = 1e-3


def batch_factor(message_bytes: int, message_rate_per_s: float,
                 config: NagleConfig) -> float:
    """Average number of messages coalesced per flush.

    Aggregation stops at whichever bound binds first: the MSS (size) or
    the flush delay (time). A factor of 1.0 means no aggregation (large
    messages, or rates too low to accumulate anything within the delay).
    """
    if message_bytes <= 0:
        raise ValueError("message size must be positive")
    if message_rate_per_s < 0:
        raise ValueError("message rate must be non-negative")
    by_size = max(1.0, config.mss_bytes / message_bytes)
    by_time = 1.0 + message_rate_per_s * config.flush_delay_s
    return max(1.0, min(by_size, by_time))


class NagleBuffer:
    """Event-level aggregation buffer for per-message simulations.

    Messages are appended; :meth:`offer` reports whether the buffer
    should flush now (full) — the time-based flush is driven by the
    caller's timer process calling :meth:`flush`.
    """

    def __init__(self, config: NagleConfig):
        self.config = config
        self._pending: List[int] = []
        self._pending_bytes = 0
        self.flushes = 0
        self.messages_flushed = 0

    def offer(self, message_bytes: int) -> bool:
        """Add a message; returns True when the buffer is flush-worthy."""
        if message_bytes < 0:
            raise ValueError("negative message size")
        self._pending.append(message_bytes)
        self._pending_bytes += message_bytes
        return self._pending_bytes >= self.config.mss_bytes

    def flush(self) -> List[int]:
        """Drain the buffer, returning the coalesced message sizes."""
        drained, self._pending = self._pending, []
        self._pending_bytes = 0
        if drained:
            self.flushes += 1
            self.messages_flushed += len(drained)
        return drained

    @property
    def average_batch(self) -> float:
        """Observed mean messages per flush (1.0 before any flush)."""
        if self.flushes == 0:
            return 1.0
        return self.messages_flushed / self.flushes
