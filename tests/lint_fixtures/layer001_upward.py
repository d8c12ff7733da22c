"""LAYER001 firing fixture (linted as module repro.simcore.fake).

The simulation kernel (layer 0) importing observability (layer 1) and
the linter (layer 3) are upward edges in the declared DAG.
"""

from repro.obs.runtime import get_telemetry
from repro.lint import rules

import repro.experiments


def use_them():
    return get_telemetry, rules, repro.experiments
