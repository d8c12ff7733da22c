"""Seeded randomness helpers shared by the models.

Everything draws from a :class:`random.Random` owned by the simulator,
or from a stream derived from its seed, so that experiments are
reproducible end to end. Models draw exponential and uniform samples
inline with ``rng.expovariate`` and ``rng.uniform``.
"""

from __future__ import annotations

import math
import random

__all__ = [
    "lognormal_from_median",
    "derived_stream",
]


def derived_stream(seed, label: str) -> random.Random:
    """An independent ``random.Random`` derived from ``(seed, label)``.

    Side channels (trace sampling, diagnostics) must not consume draws
    from the simulator's own :attr:`~repro.simcore.Simulator.rng` —
    that would change model behavior whenever the side channel toggles.
    Deriving a labeled stream from the same seed keeps them independent
    *and* reproducible: equal (seed, label) → an identical stream on
    every platform and at any ``--jobs`` level.
    """
    return random.Random(f"{label}:{seed!r}")


def lognormal_from_median(rng: random.Random, median: float,
                          sigma: float) -> float:
    """Lognormal sample parameterized by its median.

    ``median = exp(mu)`` — handy for service-time models anchored at a
    known median (the paper's app latency clusters around 40–50 ms).
    """
    if median <= 0:
        raise ValueError(f"median must be positive, got {median}")
    return rng.lognormvariate(math.log(median), sigma)
