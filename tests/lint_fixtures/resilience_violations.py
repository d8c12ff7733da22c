"""Resilience-layer lint fixture (linted as repro.resilience.fixture).

Pins the new package's lint contract: ``repro.resilience`` sits at
rank 1 in the layer DAG (a mechanism layer, peer of ``repro.core`` /
``repro.mesh``) and its modules steer every protected exhibit's
output, so upward imports into the fault/experiment layers (LAYER001)
must fire here, while a plain stdlib import stays clean.
"""

import os  # negative: no rule fires

from repro.faults.plan import FaultPlan  # LAYER001 positive: line 12
from repro.experiments.base import Series  # LAYER001 positive: line 13


def fine_stdlib_use(name):
    return os.path.join("resilience", name)


def use_upward():
    return FaultPlan, Series
