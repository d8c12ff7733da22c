"""Mean-field M/M/c queueing approximations shared by both tiers.

The fleet tier never simulates individual requests, so request latency
is a *proxy*: a closed-form function of each backend's utilization,
healthy core count, and per-request service time. The per-session
reference model in ``fleet/reference.py`` computes the **same
functions** over its discrete session counts — the validation harness
then compares trajectories, so what is being validated is the session/
utilization dynamics, not two different latency formulas.

Mean waiting time uses Sakasegawa's G/G/c approximation specialized to
M/M/c::

    Wq(rho, c) = (S / c) * rho^(sqrt(2 (c + 1)) - 1) / (1 - rho)

which is exact for c = 1, asymptotically exact as rho -> 1, and O(1)
to evaluate — the Erlang-C recurrence would cost O(c) per backend per
flow step, which at 10k replicas dominates the whole tier ("Dissecting
Service Mesh Overheads" motivates keeping per-hop cost terms, not
per-hop queues). The tail proxy inverts the M/M/c waiting-time tail
``P(Wq > t) = Pw * exp(-(c/S)(1 - rho) t)`` at the 99th percentile,
with ``Pw`` implied by Sakasegawa's Wq.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = [
    "mm_c_wait_s",
    "sojourn_mean_s",
    "sojourn_p99_s",
    "weighted_percentile",
]

#: Utilization ceiling for the closed forms: an overloaded backend's
#: latency proxy saturates here instead of diverging (the paper's
#: water-level controller never lets steady state reach this anyway).
RHO_CAP = 0.995


def mm_c_wait_s(rho: float, c: int, service_s: float) -> float:
    """Mean queueing delay (seconds) of an M/M/c at utilization rho."""
    if c < 1 or service_s <= 0:
        raise ValueError(f"need c >= 1 and service_s > 0, "
                         f"got c={c}, service_s={service_s}")
    if rho <= 0:
        return 0.0
    rho = min(rho, RHO_CAP)
    exponent = math.sqrt(2.0 * (c + 1)) - 1.0
    return (service_s / c) * (rho ** exponent) / (1.0 - rho)


def sojourn_mean_s(rho: float, c: int, service_s: float) -> float:
    """Mean request sojourn (service + queueing), seconds."""
    return _sojourn_s(rho, c, service_s)[0]


def sojourn_p99_s(rho: float, c: int, service_s: float) -> float:
    """99th-percentile sojourn proxy, seconds.

    From the M/M/c tail ``P(Wq > t) = Pw e^{-(c/S)(1-rho) t}`` with the
    delay probability ``Pw`` implied by the Sakasegawa mean:
    ``Wq = Pw S / (c (1 - rho))``. When ``Pw <= 0.01`` fewer than 1%%
    of requests queue at all and the p99 is pure service time.
    """
    return _sojourn_s(rho, c, service_s)[1]


def _sojourn_s(rho: float, c: int, service_s: float) -> Tuple[float, float]:
    """``(mean, p99)`` sojourn in seconds from one queueing-delay call."""
    wait = mm_c_wait_s(rho, c, service_s)
    mean = service_s + wait
    if wait <= 0.0:
        return mean, service_s
    rho = min(rho, RHO_CAP)
    scale = service_s / (c * (1.0 - rho))      # mean of the exp tail
    p_wait = wait / scale                      # implied P(Wq > 0)
    if p_wait <= 0.01:
        return mean, service_s
    return mean, service_s + scale * math.log(100.0 * p_wait)


def weighted_percentile(values: Sequence[float], weights: Sequence[float],
                        p: float) -> float:
    """Weighted percentile by cumulative weight (p in [0, 100])."""
    if not 0.0 <= p <= 100.0:
        # NaN fails both comparisons and lands here too.
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    pairs: List[Tuple[float, float]] = sorted(
        (v, w) for v, w in zip(values, weights) if w > 0)
    if not pairs:
        return 0.0
    total = sum(w for _v, w in pairs)
    threshold = total * p / 100.0
    running = 0.0
    for value, weight in pairs:
        running += weight
        if running >= threshold:
            return value
    return pairs[-1][0]
