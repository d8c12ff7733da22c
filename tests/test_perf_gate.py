"""The perf gate's verdict, checked against every committed baseline."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "benchmarks"))

import perf_gate  # noqa: E402


@pytest.mark.parametrize("name, baseline", [
    pytest.param(name, baseline, id=name)
    for name, _fn, _n, baseline in perf_gate.gated_scenarios()])
def test_verdict_fails_at_089x_and_passes_at_1x(name, baseline):
    assert baseline is not None, f"{name}: no committed baseline"
    assert perf_gate.verdict(0.89 * baseline, baseline) == "REGRESSION"
    assert perf_gate.verdict(1.0 * baseline, baseline) == "ok"
