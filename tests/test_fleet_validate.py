"""Fluid-vs-DES validation harness: agreement, trip wires, reporting.

The issue's acceptance floor: agreement on >= 3 overlapping-scale
scenarios (one chaos) must hold, AND a deliberately mis-parameterized
fluid model must FAIL — a validation gate that cannot fail would be
vacuous.
"""

import json

import pytest

from repro.fleet import (
    DEFAULT_SCENARIOS,
    ValidationScenario,
    compare_tiers,
    run_validation,
)


#: One compact scenario for the trip-wire tests (the full default
#: suite runs once below; no need to pay for it per trip).
STEADY = DEFAULT_SCENARIOS[0]


@pytest.fixture(scope="module")
def validation():
    """One run of the default suite, shared by the tests that only read
    its reports: ``(ok, {scenario name: report})``."""
    ok, reports = run_validation()
    return ok, {report.scenario: report for report in reports}


class TestAgreement:
    def test_default_suite_shape(self):
        assert len(DEFAULT_SCENARIOS) >= 3
        assert any(s.plan is not None for s in DEFAULT_SCENARIOS)
        names = [s.name for s in DEFAULT_SCENARIOS]
        assert len(names) == len(set(names))

    def test_all_default_scenarios_agree(self, validation):
        ok, reports = validation
        for report in reports.values():
            failing = [c.metric for c in report.checks if not c.ok]
            assert report.ok, (report.scenario, failing)
        assert ok

    def test_report_serializes(self, validation):
        report = validation[1][STEADY.name]
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["scenario"] == STEADY.name
        assert payload["ok"] is True
        metrics = {c["metric"] for c in payload["checks"]}
        assert {"availability", "steady_sessions",
                "latency_mean_ms", "latency_p99_ms"} <= metrics

    def test_chaos_scenario_compares_disruption(self, validation):
        chaos = next(s for s in DEFAULT_SCENARIOS if s.plan is not None)
        report = validation[1][chaos.name]
        assert report.ok
        disrupted = [c for c in report.checks if c.metric == "disrupted"]
        assert len(disrupted) == 1
        # The chaos plan must actually disrupt sessions in both tiers,
        # or the agreement check compares zero against zero.
        assert disrupted[0].fluid > 0.0
        assert disrupted[0].reference > 0.0


class TestMisparameterizationTrips:
    """A wrong fluid model must fail validation — both knobs."""

    def test_doubled_arrival_rate_fails(self):
        report = compare_tiers(
            STEADY, fluid_overrides={"arrival_rate_factor": 2.0})
        assert not report.ok
        failing = {c.metric for c in report.checks if not c.ok}
        assert "steady_sessions" in failing

    def test_halved_session_duration_fails(self):
        report = compare_tiers(
            STEADY, fluid_overrides={"session_duration_factor": 0.5})
        assert not report.ok
        failing = {c.metric for c in report.checks if not c.ok}
        assert "steady_sessions" in failing

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError):
            compare_tiers(STEADY, fluid_overrides={"gravity_factor": 2.0})


class TestDeterminism:
    def test_same_scenario_same_report(self, validation):
        fresh = compare_tiers(STEADY)
        assert fresh.to_json() == validation[1][STEADY.name].to_json()

    def test_seed_changes_reference_not_verdict(self):
        reseeded = ValidationScenario(
            name=STEADY.name, mean_sessions=STEADY.mean_sessions,
            session_rps=STEADY.session_rps, seed=STEADY.seed + 1)
        report = compare_tiers(reseeded)
        assert report.ok
