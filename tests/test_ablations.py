"""Tests for the ablation studies.

Bands live in the claims ledger (``tests/test_claims.py``); the
structural checks on table and series columns stay here.
"""

from repro.experiments.ablations import (
    ablation_ebpf_nagle,
    ablation_health_aggregation_levels,
    ablation_tunnel_count,
)

from .test_claims import assert_claims


class TestShardingAblation:
    def test_shuffle_sharding_eliminates_collateral(self):
        assert_claims("ablation_sharding")


class TestChainAblation:
    def test_canal_chains_survive_cascades(self):
        assert_claims("ablation_chain", "kept_fraction_chain4")

    def test_beamer_chains_lose_sessions(self):
        assert_claims("ablation_chain", "kept_fraction_chain2")


class TestHealthAblation:
    def test_levels_compound(self):
        result = ablation_health_aggregation_levels()
        table = result.tables[0]
        reductions = table.column("reduction")
        assert reductions == sorted(reductions)


class TestNagleAblation:
    def test_saving_only_below_mss(self):
        assert_claims("ablation_nagle")

    def test_saving_monotone_in_size(self):
        result = ablation_ebpf_nagle()
        with_nagle = result.series_named("ctx_per_s_nagle").ys
        without = result.series_named("ctx_per_s_no_nagle").ys
        savings = [1 - a / b for a, b in zip(with_nagle, without)]
        assert savings == sorted(savings, reverse=True)


class TestScalingAblation:
    def test_precise_beats_blind(self):
        assert_claims("ablation_scaling")


class TestTunnelAblation:
    def test_more_tunnels_better_balance(self):
        result = ablation_tunnel_count()
        table = result.tables[0]
        imbalance = table.column("core_imbalance")
        assert imbalance[-1] <= imbalance[0]

    def test_session_reduction(self):
        assert_claims("ablation_tunnels")


class TestIncrementalAblation:
    def test_gap_grows_with_cluster(self):
        assert_claims("ablation_incremental")


class TestPeakShavingAblation:
    def test_staggered_saves_synchronized_does_not(self):
        assert_claims("ablation_peaks")


class TestSensitivityStudies:
    def test_orderings_robust_to_calibration(self):
        assert_claims("sensitivity", "ordering_holds_everywhere")

    def test_lb_disaggregation_bands(self):
        assert_claims("lb_latency")
