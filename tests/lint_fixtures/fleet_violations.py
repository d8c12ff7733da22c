"""Fleet-tier lint fixture (linted as module repro.fleet.fixture).

Pins the fluid tier's determinism contract: ``repro.fleet`` sits at
rank 2 in the layer DAG and is *not* on the DET001 allowlist, so
wall-clock reads, unseeded RNG, dynamic imports (its modules feed the
fleet exhibits' cache keys), and upward imports must all fire here.
"""

import importlib  # CACHE001 positive: line 9
import random
import time

from repro.experiments.base import ExperimentResult  # LAYER001: line 13
from repro.lint import rules  # LAYER001 positive: line 14


def bad_wall_clock():
    return time.time()  # DET001 positive: line 18


def bad_unseeded_rng():
    return random.random()  # DET002 positive: line 22


def bad_dynamic_physics(name):
    return importlib.import_module(name)  # (CACHE001 flags line 9)


def use_upward():
    return ExperimentResult, rules
