"""Reconnect arrivals after a mass disconnect, with backoff jitter.

Every client that lost a session to an AZ crash reconnecting at the
same instant is §7's retry storm; jitter de-synchronizes it. Jitter is
drawn from a stream derived from the seed
(:func:`repro.simcore.rng.derived_stream`), never ``sim.rng``, so it
cannot shift the model's own samples.
"""

from __future__ import annotations

import math
from typing import List

from ..simcore.rng import derived_stream

__all__ = ["retry_storm_arrivals"]


def retry_storm_arrivals(sessions: int, base_backoff_s: float,
                         jitter: float, seed: object = 0,
                         bucket_s: float = 1.0) -> List[int]:
    """Reconnect arrivals per ``bucket_s`` window after a disconnect.

    Each of ``sessions`` clients reconnects ``base_backoff_s * (1 -
    jitter * u)`` seconds out, one draw ``u`` per client even at
    ``jitter=0``. At ``jitter=0`` the whole population lands in one
    bucket, the synchronized storm; at ``1.0`` it spreads over the
    backoff span. O(sessions) and no simulator, so fleet-tier runs can
    price a storm analytically.
    """
    if sessions < 0:
        raise ValueError(f"negative session count {sessions}")
    for name, value in (("base_backoff_s", base_backoff_s),
                        ("bucket_s", bucket_s)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must be in [0, 1], got {jitter}")
    stream = derived_stream(seed, "repro.resilience.retry-storm")
    buckets: List[int] = []
    for _ in range(sessions):
        delay = base_backoff_s * (1.0 - jitter * stream.random())
        index = int(delay / bucket_s)
        if index >= len(buckets):
            buckets.extend([0] * (index - len(buckets) + 1))
        buckets[index] += 1
    return buckets
