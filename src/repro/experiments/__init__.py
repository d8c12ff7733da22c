"""One experiment per paper table and figure.

``EXPERIMENTS`` maps exhibit IDs ("fig11", "table5", ...) to functions
returning :class:`ExperimentResult`; ``run(exp_id)`` executes one. The
claims ledger (``tests/test_claims.py``) runs each through ``run`` and
checks every finding against its band.
"""

from typing import Callable, Dict, List

from .ablations import ABLATIONS
from .cases import CASES_EXPERIMENTS
from .sensitivity import SENSITIVITY
from .appendix import (
    fig21_iptables_path,
    fig22_context_switch_frequency,
    fig23_crypto_completion_time,
    fig24_latency_distribution,
    fig25_avx512_batching,
    fig26_session_consistency,
    fig27_28_offload_performance,
    fig29_30_ebpf_performance,
)
from .base import ExperimentResult, Series, Table
from .cloud_ops import (
    build_production_gateway,
    fig16_noisy_neighbor,
    fig17_scaling_cdf,
    fig18_scaling_occurrences,
    fig19_shuffle_sharding,
    fig20_daily_operations,
    table4_scaling_timelines,
)
from .comparison import (
    fig10_latency_light_workloads,
    fig11_latency_vs_rps,
    fig12_crypto_cpu_saving,
    fig13_cpu_usage,
    fig14_config_completion,
    fig15_southbound_bandwidth,
)
from .deployment_costs import table5_cost_reduction
from .fleet_scale import (
    fleet_fig13_cpu_at_scale,
    fleet_fig17_18_scaling_at_scale,
    fleet_fig19_sharding_at_scale,
    fleet_fig20_daily_operations_at_scale,
)
from .recovery import fig8_plan, fig8_recovery
from .resilience import fig8_resilience, resilience_plan
from .health_checks import (
    table6_health_check_excess,
    table7_health_check_reduction,
)
from .sidecar_problems import (
    fig2_latency_vs_utilization,
    fig3_sidecar_growth,
    fig4_controller_cpu,
    fig5_istio_ambient_cpu,
    table1_sidecar_resources,
    table2_update_frequency,
    table3_l7_adoption,
)
from .testbed import build_testbed, find_knee_rps
from .trace_breakdown import trace_breakdown

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1_sidecar_resources,
    "fig2": fig2_latency_vs_utilization,
    "fig3": fig3_sidecar_growth,
    "fig4": fig4_controller_cpu,
    "fig5": fig5_istio_ambient_cpu,
    "table2": table2_update_frequency,
    "table3": table3_l7_adoption,
    "fig8_recovery": fig8_recovery,
    "fig8_resilience": fig8_resilience,
    "fig10": fig10_latency_light_workloads,
    "fig11": fig11_latency_vs_rps,
    "fig12": fig12_crypto_cpu_saving,
    "fig13": fig13_cpu_usage,
    "fig14": fig14_config_completion,
    "fig15": fig15_southbound_bandwidth,
    "fig16": fig16_noisy_neighbor,
    "fig17": fig17_scaling_cdf,
    "table4": table4_scaling_timelines,
    "fig18": fig18_scaling_occurrences,
    "fig19": fig19_shuffle_sharding,
    "fig20": fig20_daily_operations,
    "table5": table5_cost_reduction,
    "table6": table6_health_check_excess,
    "table7": table7_health_check_reduction,
    "fig21": fig21_iptables_path,
    "fig22": fig22_context_switch_frequency,
    "fig23": fig23_crypto_completion_time,
    "fig24": fig24_latency_distribution,
    "fig25": fig25_avx512_batching,
    "fig26": fig26_session_consistency,
    "fig27_28": fig27_28_offload_performance,
    "fig29_30": fig29_30_ebpf_performance,
    "trace_breakdown": trace_breakdown,
}

#: Ablation studies of the design choices (not paper exhibits, but
#: regenerable the same way).
EXPERIMENTS.update(ABLATIONS)

#: §6.2's production incidents and §2.1's cross-region case, scripted.
EXPERIMENTS.update(CASES_EXPERIMENTS)

#: Calibration robustness + the §4.4 LB-latency claim.
EXPERIMENTS.update(SENSITIVITY)

#: The fluid-flow scale tier's exhibits: the same §5.5 claims at the
#: paper's true operating point (O(10k) replicas, O(1M) sessions,
#: multi-region). See ``repro.fleet`` and DESIGN.md §2i.
FLEET_EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "fleet_fig13": fleet_fig13_cpu_at_scale,
    "fleet_fig17_18": fleet_fig17_18_scaling_at_scale,
    "fleet_fig19": fleet_fig19_sharding_at_scale,
    "fleet_fig20": fleet_fig20_daily_operations_at_scale,
}
EXPERIMENTS.update(FLEET_EXPERIMENTS)

#: Exhibit tiers: "testbed" = per-session DES at testbed scale (the
#: default everywhere), "fleet" = the fluid scale tier. One registry
#: so the CLI's ``--tier`` choices and ``--list`` annotations agree.
TIERS = ("testbed", "fleet")


def exhibit_tier(exp_id: str) -> str:
    """Which tier an exhibit belongs to ("testbed" or "fleet")."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {sorted(EXPERIMENTS)}")
    return "fleet" if exp_id in FLEET_EXPERIMENTS else "testbed"


def exhibit_ids() -> List[str]:
    """The sorted catalog of known exhibit ids.

    One listing shared by the CLI (``--list``) and error messages — so
    every surface agrees on what exists.
    """
    return sorted(EXPERIMENTS)


def run(exp_id: str) -> ExperimentResult:
    """Run one experiment by its exhibit ID."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[exp_id]()


__all__ = [
    "ABLATIONS",
    "CASES_EXPERIMENTS",
    "EXPERIMENTS",
    "FLEET_EXPERIMENTS",
    "SENSITIVITY",
    "TIERS",
    "ExperimentResult",
    "Series",
    "Table",
    "build_production_gateway",
    "build_testbed",
    "exhibit_ids",
    "exhibit_tier",
    "fig8_plan",
    "fig8_recovery",
    "fig8_resilience",
    "find_knee_rps",
    "resilience_plan",
    "run",
]
