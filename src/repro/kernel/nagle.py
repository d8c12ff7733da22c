"""Nagle-style small-message aggregation (RFC 896).

The kernel TCP stack enables Nagle by default, coalescing small writes
into MSS-sized segments. The paper found that eBPF sockmap redirection
bypasses the kernel stack and therefore loses this aggregation, blowing
up the context-switch frequency for small messages (Fig 22) — their fix
was to re-implement Nagle in eBPF before redirection (§4.1.2). Both the
kernel's aggregation and the eBPF re-implementation use this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["NagleConfig", "batch_factor"]


@dataclass(frozen=True)
class NagleConfig:
    """Aggregation parameters."""

    mss_bytes: int = 1460
    #: Upper bound on how long a message may sit waiting for company.
    #: Real Nagle is ACK-clocked (one in-flight small segment at a time),
    #: which with delayed ACKs gives an effective ~1 ms window; a fixed
    #: delay is the standard fluid approximation.
    flush_delay_s: float = 1e-3

    def __post_init__(self):
        if self.mss_bytes < 1:
            raise ValueError(
                f"NagleConfig.mss_bytes must be >= 1, got {self.mss_bytes!r}")
        if not (math.isfinite(self.flush_delay_s) and self.flush_delay_s >= 0):
            raise ValueError(f"NagleConfig.flush_delay_s must be finite and "
                             f">= 0, got {self.flush_delay_s!r}")


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
