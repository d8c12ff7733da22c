"""Tests for the experiment harness, plus per-exhibit checks.

The per-exhibit tests check an exhibit's rows of the claims ledger
(``tests/test_claims.py``), which holds every band; none is written here.
"""

import pytest

from repro.experiments import EXPERIMENTS, run
from repro.experiments.base import ExperimentResult, Series, Table

from .test_claims import assert_claims


class TestHarness:
    def test_registry_covers_every_exhibit(self):
        expected = {
            "table1", "fig2", "fig3", "fig4", "fig5", "table2", "table3",
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "table4", "fig18", "fig19", "fig20", "table5",
            "table6", "table7", "fig21", "fig22", "fig23", "fig24",
            "fig25", "fig26", "fig27_28", "fig29_30",
        }
        assert expected <= set(EXPERIMENTS)
        # Everything beyond the paper exhibits is an ablation study, a
        # scripted production case, a robustness study, the chaos /
        # causal-tracing exhibits, or the fleet-scale family.
        from repro.experiments import (ABLATIONS, CASES_EXPERIMENTS,
                                       FLEET_EXPERIMENTS, SENSITIVITY)
        assert (set(EXPERIMENTS) - expected
                == set(ABLATIONS) | set(CASES_EXPERIMENTS)
                | set(SENSITIVITY) | set(FLEET_EXPERIMENTS)
                | {"fig8_recovery", "fig8_resilience", "trace_breakdown"})

    def test_exhibit_tiers(self):
        from repro.experiments import (FLEET_EXPERIMENTS, TIERS,
                                       exhibit_tier)
        assert TIERS == ("testbed", "fleet")
        assert exhibit_tier("fig2") == "testbed"
        for exp_id in FLEET_EXPERIMENTS:
            assert exhibit_tier(exp_id) == "fleet"
        with pytest.raises(KeyError):
            exhibit_tier("fig99")

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run("fig99")

    def test_table_row_arity_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_table_column_access(self):
        table = Table("t", ["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]

    def test_table_formatting(self):
        table = Table("Title", ["col"])
        table.add_row(0.123456)
        text = table.formatted()
        assert "Title" in text and "col" in text

    def test_series_accessors(self):
        series = Series("s")
        series.add(1.0, 2.0)
        assert series.xs == [1.0] and series.ys == [2.0]

    def test_result_lookup(self):
        result = ExperimentResult("x", "t")
        result.series.append(Series("a"))
        assert result.series_named("a").name == "a"
        with pytest.raises(KeyError):
            result.series_named("b")
        with pytest.raises(KeyError):
            result.table_named("nope")

    def test_result_formatting(self):
        result = run("table5")
        text = result.formatted()
        assert "table5" in text and "Region1" in text


class TestSidecarProblemExhibits:
    def test_table1_shares_in_band(self):
        assert_claims("table1")

    def test_fig2_latency_knee(self):
        assert_claims("fig2")

    def test_fig3_growth_doubles(self):
        assert_claims("fig3")

    def test_table2_bands(self):
        assert_claims("table2")

    def test_table3_adoption_band(self):
        assert_claims("table3")


class TestComparisonExhibits:
    def test_fig10_ratios(self):
        assert_claims("fig10")

    def test_fig15_exact_paper_ratios(self):
        assert_claims("fig15")


class TestCloudOpsExhibits:
    def test_fig16_isolation(self):
        assert_claims("fig16")

    def test_fig19_sharding_guarantees(self):
        assert_claims("fig19")

    def test_table5_bands(self):
        assert_claims("table5")


class TestHealthCheckExhibits:
    def test_table6_excess(self):
        assert_claims("table6")

    def test_table7_reduction(self):
        assert_claims("table7")


class TestAppendixExhibits:
    def test_fig21_structure(self):
        assert_claims("fig21")

    def test_fig22_ebpf_ctx_blowup(self):
        assert_claims("fig22")

    def test_fig23_completion_anchors(self):
        assert_claims("fig23")

    def test_fig24_bimodal(self):
        assert_claims("fig24")

    def test_fig25_crossover_at_batch_width(self):
        assert_claims("fig25")

    def test_fig26_session_consistency(self):
        assert_claims("fig26")

    def test_fig29_30_bands(self):
        assert_claims("fig29_30")
