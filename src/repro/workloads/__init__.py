"""Workload drivers and synthetic production traces."""

from .generators import (
    ClosedLoopDriver,
    LoadReport,
    OpenLoopDriver,
    ShortFlowDriver,
)
from .traces import (
    attack_trace,
    diurnal_profile,
    flat_profile,
    growth_trend,
    production_latency_samples,
    surge_trace,
    update_frequency_for_cluster,
)

__all__ = [
    "ClosedLoopDriver",
    "LoadReport",
    "OpenLoopDriver",
    "ShortFlowDriver",
    "attack_trace",
    "diurnal_profile",
    "flat_profile",
    "growth_trend",
    "production_latency_samples",
    "surge_trace",
    "update_frequency_for_cluster",
]
