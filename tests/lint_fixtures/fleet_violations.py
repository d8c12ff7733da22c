"""Fleet-tier lint fixture (linted as module repro.fleet.fixture).

Pins the fluid tier's determinism contract: ``repro.fleet`` sits at
rank 2 in the layer DAG and is *not* on the DET001 allowlist, so
wall-clock reads, unseeded RNG and upward imports must all fire here,
while a plain stdlib import stays clean.
"""

import os  # negative: no rule fires
import random
import time

from repro.experiments.base import ExperimentResult  # LAYER001: line 13
from repro.lint import rules  # LAYER001 positive: line 14


def bad_wall_clock():
    return time.time()  # DET001 positive: line 18


def bad_unseeded_rng():
    return random.random()  # DET002 positive: line 22


def fine_stdlib_use(name):
    return os.path.join("fleet", name)


def use_upward():
    return ExperimentResult, rules
