"""The claims ledger: every paper band the exhibits must reproduce.

``CLAIMS`` is the one place a finding's band is written down. Each row
is ``(exhibit, finding, lo, hi, paper, anchored)``:

* ``finding`` names a key of the exhibit's ``findings``, or a ratio
  ``a/b`` of two keys, so with/without pairs and cross-finding orderings
  are plain rows too;
* ``lo``/``hi`` bound the band inclusively; ``None`` leaves a side open
  and :class:`Open` makes an edge strict (``hi=Open(1.0)`` is ``< 1.0``);
* ``paper`` is the value or statement the paper gives;
* ``anchored`` marks findings that are calibration inputs rather than
  emergent results (EXPERIMENTS.md).

``test_claim`` runs each registry exhibit once per session. A row's tier
comes from :func:`repro.experiments.exhibit_tier`: fleet rows carry the
``fleet`` marker, which the default options deselect; run them with
``pytest -m fleet tests/test_claims.py``.
"""

import functools

import pytest

from repro.experiments import EXPERIMENTS, ExperimentResult, exhibit_tier, run


class Open(float):
    """A band edge the value must not touch."""


CLAIMS = (
    # §2 — problems of per-pod sidecars
    ("table1", "min_cpu_share", 0.03, None, "~4 % of cluster CPU", True),
    ("table1", "max_cpu_share", None, 0.32, "~30 % of cluster CPU", True),
    ("fig2", "mean_multiplier_at_45pct", Open(1.3), Open(2.5),
     "~2x latency at 45 % sidecar CPU", False),
    ("fig2", "p99_multiplier_at_92pct", Open(20.0), None,
     "100-1000x spikes past 75 %", True),
    ("fig3", "growth_ratio", Open(1.7), Open(2.3), "~2x, 2020 to 2022", True),
    ("fig4", "build_growth", Open(20.0), None,
     "build CPU grows with cluster size", False),
    ("fig4", "push_rate_growth/build_growth", None, Open(0.2),
     "push CPU stays flat", False),
    ("fig4", "completion_growth", Open(5.0), None,
     "completion stretches", False),
    ("fig5", "istio_over_ambient_cpu", Open(2.0), Open(5.0),
     "Ambient saves CPU, less than hoped", False),
    ("table2", "small_cluster_per_min", 1.0, 5.0, "1-5 updates/min", True),
    ("table2", "large_cluster_per_min", 40.0, 70.0, "40-70 updates/min", True),
    ("table3", "min_l7_share", 0.75, None, "80 % enable L7", True),
    ("table3", "max_l7_share", None, 0.97, "95 % enable L7", True),

    # §5.2-5.4 — testbed comparison
    ("fig10", "istio_over_canal", Open(1.4), Open(2.2), "1.7x", False),
    ("fig10", "ambient_over_canal", Open(1.1), Open(1.6), "1.3x", False),
    ("fig10", "canal_over_baseline", None, Open(1.4),
     "Canal closest to no-mesh", False),
    ("fig11", "canal_over_istio_throughput", Open(5.0), None, "12.3x", False),
    ("fig11", "canal_over_ambient_throughput", Open(1.5), None, "2.3x", False),
    ("fig12", "local_saving_min", 0.43, None, "43 % (local)", False),
    ("fig12", "local_saving_max", None, 0.72, "70 % (local)", False),
    ("fig12", "remote_saving_min", 0.60, None, "62 % (remote)", False),
    ("fig12", "remote_saving_max", None, 0.72, "70 % (remote)", False),
    ("fig13", "istio_over_canal_cpu", Open(10.0), Open(22.0), "12-19x", False),
    ("fig13", "ambient_over_canal_cpu", Open(3.5), Open(8.0), "4.6-7.2x",
     False),
    ("fig14", "istio_over_canal_time", Open(1.3), Open(2.3), "1.5-2.1x",
     False),
    ("fig14", "ambient_over_canal_time", Open(1.1), Open(1.6), "1.2-1.5x",
     False),
    ("fig15", "istio_over_canal_bytes", 9.8 * 0.99, 9.8 * 1.01, "9.8x", True),
    ("fig15", "ambient_over_canal_bytes", 4.6 * 0.99, 4.6 * 1.01, "4.6x",
     True),

    # §5.5 — performance on cloud infra
    ("fig16", "peak_backend_cpu", 0.7, 0.9, "80 %", False),
    ("fig16", "final_backend_cpu", None, 0.4, "30 %", False),
    ("fig16", "max_error_codes", 0, 0, "peers see 0 error codes", False),
    ("fig16", "recovery_seconds", None, 60, "dozens of seconds", False),
    ("fig17", "reuse_p50_s", Open(30.0), Open(90.0), "~55 s", True),
    ("fig17", "new_p50_s", Open(12 * 60), Open(24 * 60), "~17 min", True),
    ("table4", "reuse_execute_to_finish_s", None, Open(120.0),
     "below threshold ~74 s after execute", False),
    ("table4", "new_execute_to_finish_s", Open(8 * 60), None,
     "~17.5 min pipeline", False),
    ("fig18", "total_reuse/total_new", Open(8.0), None,
     "Reuse far more often than New", False),
    ("fig18", "total_new", Open(0), None, "New still occurs", False),
    ("fig19", "fully_overlapping_pairs", 0, 0, "no complete overlap", False),
    ("fig19", "min_survivor_backends", 1, None,
     "several backends per service", False),
    ("fig20", "rps_error_correlation", Open(0.8), None,
     "error codes track RPS", False),
    ("fig20", "max_error_ratio", None, Open(0.01),
     "operations cause no spikes", False),
    ("fig20", "operations_executed", 3, None,
     "migration, scaling and update in one day", False),

    # §5.6 — deployment costs
    ("table5", "redirector_min", 0.30, None, "-32 %", True),
    ("table5", "redirector_max", None, 0.50, "-48 %", True),
    ("table5", "both_min", 0.50, None, "-55 %", True),
    ("table5", "both_max", None, 0.72, "-70 %", True),

    # §6 — operational experience
    ("table6", "max_ratio", Open(400), None, "up to 515x app traffic", False),
    ("table7", "min_reduction", 0.996, None, ">= 99.6 %", False),

    # Appendix
    ("fig21", "iptables_extra_stack_passes", 2, 2, "2 extra passes", False),
    ("fig21", "cpu_ratio", Open(3.0), None,
     "iptables costs more per message", False),
    ("fig22", "ebpf_over_iptables_ctx", Open(1.5), None,
     "eBPF without Nagle switches more", False),
    ("fig22", "nagle_fix_ctx_reduction", Open(0.5), None,
     "Nagle in eBPF fixes it", False),
    ("fig23", "remote_mean_ms", Open(1.4), Open(2.0), "~1.7 ms", True),
    ("fig23", "remote_spread_ms", None, Open(0.2), "flat across loads", False),
    ("fig23", "none_mean_ms", 2.0 * (1 - 1e-6), 2.0 * (1 + 1e-6), "~2 ms",
     True),
    ("fig24", "share_40_50ms", Open(0.25), None, "mode at 40-50 ms", False),
    ("fig24", "share_100_200ms", Open(0.25), None, "mode at 100-200 ms",
     False),
    ("fig24", "key_server_delta_relative", None, Open(0.02),
     "key server's 0.7 ms negligible", False),
    ("fig25", "crossover_connections", 8, 8, "8 connections", False),
    ("fig25", "completion_at_1_ms", 1.25 * 0.95, 1.25 * 1.05,
     "AVX-512 slower than software below 8", True),
    ("fig25", "completion_at_8_ms/completion_at_1_ms", None, Open(1.0),
     "batching pays at 8", False),
    ("fig26", "sticky_fraction", 1.0, 1.0, "established sessions stay",
     False),
    ("fig26", "new_flows_on_draining", 0, 0, "no new sessions", False),
    ("fig27_28", "throughput_ratio_min", Open(1.5), None, "1.6x", False),
    ("fig27_28", "throughput_ratio_max", None, Open(1.9), "1.8x", False),
    ("fig27_28", "latency_reduction_max", Open(0.45), None, "-53 to -60 %",
     False),
    ("fig29_30", "throughput_ratio_small", Open(1.2), Open(1.5), "~1.3x",
     False),
    ("fig29_30", "throughput_ratio_large", Open(1.9), Open(2.6), "~2x",
     False),
    ("fig29_30", "latency_ratio_mean", Open(1.3), Open(1.9), "1.5-1.8x",
     False),

    # Ablations: each design choice against its alternative
    ("ablation_sharding", "shuffled_collateral", 0, 0,
     "shuffle sharding: no collateral", False),
    ("ablation_sharding", "naive_collateral", 1, None,
     "block placement co-fails", False),
    ("ablation_chain", "kept_fraction_chain4", 1.0, 1.0,
     "chains of 4 keep every flow", False),
    ("ablation_chain", "kept_fraction_chain2", None, Open(0.95),
     "Beamer's chains of 2 lose flows", False),
    ("ablation_health", "full_reduction", Open(0.996), None, ">= 99.6 %",
     False),
    ("ablation_health", "service_only_reduction", None, Open(0.5),
     "one level alone is not enough", False),
    ("ablation_nagle", "small_packet_ctx_saving", Open(0.5), None,
     "Nagle saves below MSS", False),
    ("ablation_nagle", "large_packet_ctx_saving", 0, 0,
     "no effect at or above MSS", False),
    ("ablation_scaling", "precise_ops/blind_ops", None, Open(1.0),
     "RCA-precise scaling needs fewer ops", False),
    ("ablation_scaling", "precise_time_s/blind_time_s", None, Open(1.0),
     "and less time", False),
    ("ablation_tunnels", "session_reduction_at_10x", Open(0.999), None,
     "aggregation removes underlay sessions", False),
    ("ablation_incremental",
     "full_over_incremental_large/full_over_incremental_small", Open(2.0),
     None, "O(N^2) full push vs O(N) incremental", False),
    ("ablation_peaks", "saving_staggered", Open(0.3), None,
     "consolidation shaves staggered peaks", False),
    ("ablation_peaks", "saving_synchronized", None, Open(0.1),
     "but not synchronized ones", False),

    # Scripted incidents (§6.2, §2.1, §6.3)
    ("case1", "classified_ddos", 1, None, "flood classified as an attack",
     False),
    ("case1", "lossy_migrations", 1, 1, "one lossy migration", False),
    ("case1", "sessions_reset", Open(100_000), None, "sessions reset", False),
    ("case1", "migration_duration_s", None, Open(15.0), "within seconds",
     False),
    ("case1", "peers_unaffected", 1, 1, "peers unaffected", False),
    ("case2", "scaling_events", 2, None, "auto-scaling kept firing", False),
    ("case2", "lossless_migrations", 1, 1, "one lossless migration", False),
    ("case2", "sessions_reset", 0, 0, "no sessions reset", False),
    ("case2", "migration_duration_min", Open(5.0), Open(90.0),
     "~20 min median drain", False),
    ("case3", "platforms_down_without", 3, 3,
     "query of death takes every platform down", False),
    ("case3", "platforms_down_with", 0, 0, "throttling stops the cascade",
     False),
    ("case3", "a_survives_with_throttle", 1, 1, "hot platform keeps serving",
     False),
    ("case_vpn", "delay_ratio", Open(5.0), None,
     "100 Mbps VPN delays updates", False),
    ("case_vpn", "queue_growth_100mbps", Open(1.5), None,
     "updates queue up", False),
    ("case_vpn", "p50_delay_1gbps", None, Open(5.0), "1 Gbps is timely",
     False),
    ("case_phase", "in_phase_groups", 1, None, "in-phase group detected",
     False),
    ("case_phase", "migrations_executed", 2, None, "group scattered", False),
    ("case_phase", "peak_water_after/peak_water_before", None, Open(1.0),
     "daily peak lowered", False),
    ("case_phase", "peak_reduction", Open(0.2), None, "by a real margin",
     False),

    # Robustness, chaos, resilience and tracing
    ("sensitivity", "ordering_holds_everywhere", 1, 1,
     "orderings independent of calibration", False),
    ("sensitivity", "latency_ratio_min", Open(1.1), None,
     "Istio/Canal latency gap persists", False),
    ("lb_latency", "dedicated_p10_ms", 2.6, None, "3 ms", False),
    ("lb_latency", "dedicated_p90_ms", None, 4.6, "4.2 ms", False),
    ("lb_latency", "disaggregated_p10_ms", 1.3, None, "1.4 ms", False),
    ("lb_latency", "disaggregated_p90_ms", None, 2.2, "2.1 ms", False),
    ("lb_latency", "disaggregated_p90_ms/dedicated_p10_ms", None, Open(1.0),
     "the two bands do not overlap", False),
    ("fig8_recovery", "invariant_violations", 0, 0,
     "recovery hierarchy conserves state", False),
    ("fig8_resilience", "invariant_violations", 0, 0,
     "policies conserve state", False),
    ("fig8_resilience", "containment_matches_analytic", 1, 1,
     "breaker contains the cascade", False),
    ("trace_breakdown", "canal_e2e_traces", 1, 1,
     "first Canal trace covers end to end", False),
    ("trace_breakdown", "chaos_faults_detected", 1, 1,
     "traces localize the fault", False),

    # Fleet tier: the §5.5 claims at cloud scale
    ("fleet_fig13", "istio_over_canal_cpu", Open(10.0), Open(11.5),
     "12-19x (Fig 13, user CPU only)", False),
    ("fleet_fig13", "ambient_over_canal_cpu", Open(2.8), Open(3.5),
     "4.6-7.2x (Fig 13, user CPU only)", False),
    ("fleet_fig13", "istio_over_canal_cpu/ambient_over_canal_cpu",
     Open(1.0), None, "Istio costs most", False),
    ("fleet_fig17_18", "reuse_median_s", Open(15.0), Open(40.0),
     "~23 s Reuse execute (Table 4)", True),
    ("fleet_fig17_18", "new_median_s", Open(12 * 60), Open(24 * 60),
     "~17.5 min New pipeline", True),
    ("fleet_fig17_18", "new_median_s/reuse_median_s", Open(10.0), None,
     "minutes vs seconds", False),
    ("fleet_fig17_18", "reuse_fraction", Open(0.5), 1.0,
     "Reuse far more often than New", False),
    ("fleet_fig19", "identical_pairs", 0, 0, "no complete overlap", False),
    ("fleet_fig19", "max_blast_fraction", None, 0.004,
     "one backend touches few tenants", False),
    ("fleet_fig20", "regions", 2, 2, "multi-region", False),
    ("fleet_fig20", "worst_availability", 1.0, 1.0,
     "operations cause no outage", False),
    ("fleet_fig20", "total_replicas", 10_000, None, "O(10k) replicas", False),
    ("fleet_fig20", "peak_concurrent_sessions", 1e6, None,
     "O(1M) sessions", False),
)


def row_id(row) -> str:
    return f"{row[0]}:{row[1]}"


def band_text(lo, hi) -> str:
    left = "(-inf" if lo is None else (
        ("(" if isinstance(lo, Open) else "[") + f"{lo:g}")
    right = "inf)" if hi is None else (
        f"{hi:g}" + (")" if isinstance(hi, Open) else "]"))
    return f"{left}, {right}"


def row_failure(row, result: ExperimentResult):
    """``None`` when the row's finding lies in its band, else a message."""
    exhibit, finding, lo, hi, paper, anchored = row
    numerator, _, denominator = finding.partition("/")
    value = result.findings[numerator]
    if denominator:
        value /= result.findings[denominator]
    above = lo is None or (value > lo if isinstance(lo, Open) else value >= lo)
    below = hi is None or (value < hi if isinstance(hi, Open) else value <= hi)
    if above and below:
        return None
    return (f"{row_id(row)} = {value:.6g} outside {band_text(lo, hi)}; "
            f"paper: {paper}; {'anchored' if anchored else 'emergent'}")


@functools.lru_cache(maxsize=None)
def exhibit_result(exp_id: str) -> ExperimentResult:
    """Each registry exhibit runs once per session, shared by every row."""
    return run(exp_id)


def assert_claims(exhibit: str, *findings: str) -> None:
    """Check ``exhibit``'s ledger rows: all of them, or those for
    ``findings``. Per-exhibit tests elsewhere reuse the ledger's bands
    through this instead of writing their own."""
    rows = [row for row in CLAIMS if row[0] == exhibit
            and (not findings or row[1] in findings)]
    assert rows and len(rows) >= len(findings), (
        f"no ledger rows for {exhibit} {findings}")
    result = exhibit_result(exhibit)
    failures = [message for message in (row_failure(row, result)
                                         for row in rows) if message]
    if failures:
        pytest.fail("\n".join(failures), pytrace=False)


def _param(row):
    marks = [pytest.mark.fleet] if exhibit_tier(row[0]) == "fleet" else []
    return pytest.param(row, id=row_id(row), marks=marks)


@pytest.mark.parametrize("row", [_param(row) for row in CLAIMS])
def test_claim(row):
    assert_claims(row[0], row[1])


class TestLedger:
    def test_every_exhibit_has_a_row_and_no_band_repeats(self):
        assert set(EXPERIMENTS) == {row[0] for row in CLAIMS}
        ids = [row_id(row) for row in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_out_of_band_value_fails_with_paper_value(self):
        fake = ExperimentResult("fig10", "fake")
        fake.findings.update(istio_over_canal=1.4, ambient_over_canal=1.2)
        rows = {row[1]: row for row in CLAIMS if row[0] == "fig10"}
        message = row_failure(rows["istio_over_canal"], fake)
        assert message == ("fig10:istio_over_canal = 1.4 outside (1.4, 2.2); "
                           "paper: 1.7x; emergent")
        assert row_failure(rows["ambient_over_canal"], fake) is None
