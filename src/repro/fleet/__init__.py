"""repro.fleet — the fluid-flow scale tier.

The per-session tier (``repro.core`` + ``repro.mesh``) walks one
object per replica and one event per request; it tops out around a
few hundred replicas per affordable run. This package re-renders the
paper's production-scale claims — 10k+ replicas, millions of
concurrent sessions, multi-region — by modeling the mesh as aggregate
flows:

* :mod:`.config` — topology shape + analytic demand, with every cost
  rate derived from the same ``GatewayConfig``/``ReplicaConfig`` the
  testbed tier uses (one source of truth, no constant drift);
* :mod:`.topology` — entity-array backends/AZs and shuffle-shard
  assignment mirroring ``repro.core.sharding`` semantics;
* :mod:`.queueing` — O(1) mean-field M/M/c latency proxies shared by
  both tiers;
* :mod:`.model` — the fluid session-flow integrator, stepped as
  direct calls (``call_later``) on the ordinary
  :class:`~repro.simcore.Simulator` agenda;
* :mod:`.scaling` — aggregate Reuse-vs-New shard growth with the
  paper's Table 4 timing distributions;
* :mod:`.faults` — the topology slice of :class:`~repro.faults.plan.
  FaultPlan` compiled onto entity-array mutations;
* :mod:`.reference` — the discrete per-session twin (Poisson arrivals,
  one departure event per session) that anchors the tier;
* :mod:`.validate` — the harness that makes the fluid tier *earn*
  its speed: both models run identical mid-scale scenarios and must
  agree within declared tolerances, or CI fails.
"""

from .config import FleetConfig, FleetDemand
from .faults import FLEET_FAULT_KINDS, FleetFaultEngine
from .model import FleetCounters, FleetMetrics, FleetModel
from .queueing import (mm_c_wait_s, sojourn_mean_s, sojourn_p99_s,
                       weighted_percentile)
from .reference import SessionDES, poisson
from .scaling import FleetScaler, FleetScalingEvent
from .topology import FleetTopology, ShardStats
from .validate import (DEFAULT_SCENARIOS, Tolerances, ValidationReport,
                       ValidationScenario, compare_tiers, run_validation)

__all__ = [
    "FLEET_FAULT_KINDS",
    "DEFAULT_SCENARIOS",
    "FleetConfig",
    "FleetCounters",
    "FleetDemand",
    "FleetFaultEngine",
    "FleetMetrics",
    "FleetModel",
    "FleetScaler",
    "FleetScalingEvent",
    "FleetTopology",
    "SessionDES",
    "ShardStats",
    "Tolerances",
    "ValidationReport",
    "ValidationScenario",
    "compare_tiers",
    "mm_c_wait_s",
    "poisson",
    "run_validation",
    "sojourn_mean_s",
    "sojourn_p99_s",
    "weighted_percentile",
]
