"""The paper's contribution: Canal Mesh and its cloud infrastructure.

* :class:`CanalMesh` — on-node proxies + centralized gateway + key
  server, implementing the common ``ServiceMesh`` interface;
* the multi-tenant gateway: backends/replicas, shuffle sharding,
  hierarchical failure recovery, disaggregated LB (Beamer-style
  redirectors), session aggregation;
* the control loops: monitoring, root-cause analysis, precise scaling
  (Reuse/New), anomaly-triggered sandbox migration;
* operations machinery: the health-check aggregation plan, in-phase
  traffic migration, deployment-cost economics.
"""

from .anomaly import (
    AnomalySignals,
    RapidResponder,
    ResponseRecord,
    classify,
)
from .backend import Backend
from .canal import CanalControlPlane, CanalMesh
from .economics import (
    RegionDemand,
    VmFootprint,
    cost_reduction,
    deployment_footprint,
)
from .gateway import GatewayConfig, MeshGateway, NoBackendAvailable
from .healthcheck import (
    HealthCheckPlan,
    HealthCheckReduction,
    ServicePlacement,
)
from .key_server import (
    AccessDenied,
    FallbackEngine,
    KeyServer,
    KeyServerConfig,
    KeyServerFleet,
    RemoteKeyEngine,
)
from .monitoring import Alert, GatewayMonitor
from .onnode import OnNodeProxy
from .proxyless import (
    Eni,
    EniLimitExceeded,
    EniRegistry,
    ProxylessCanalMesh,
)
from .upgrade import RollingUpgrade, UpgradeReport
from .phase import DailyProfile, MigrationPlan, PhaseMonitor, hwhm_window
from .rca import RcaResult, RootCauseAnalyzer, pearson
from .redirector import (
    BucketTable,
    DeliveryResult,
    DisaggregatedLB,
    FlowStore,
)
from .replica import Replica, ReplicaConfig
from .sandbox import MigrationRecord, SandboxManager
from .scaling import ScalingEngine, ScalingEvent, ScalingTimings
from .session_aggregation import SessionAggregator
from .sharding import ShardingError, ShardStats, place_shard, shard_stats
from .tenancy import Tenant, TenantRegistry, TenantService

__all__ = [
    "AccessDenied",
    "Alert",
    "AnomalySignals",
    "Backend",
    "BucketTable",
    "CanalControlPlane",
    "CanalMesh",
    "DailyProfile",
    "DeliveryResult",
    "DisaggregatedLB",
    "Eni",
    "EniLimitExceeded",
    "EniRegistry",
    "FallbackEngine",
    "FlowStore",
    "GatewayConfig",
    "GatewayMonitor",
    "HealthCheckPlan",
    "HealthCheckReduction",
    "KeyServer",
    "KeyServerConfig",
    "KeyServerFleet",
    "MeshGateway",
    "MigrationPlan",
    "MigrationRecord",
    "NoBackendAvailable",
    "OnNodeProxy",
    "PhaseMonitor",
    "ProxylessCanalMesh",
    "RapidResponder",
    "RollingUpgrade",
    "RcaResult",
    "RegionDemand",
    "RemoteKeyEngine",
    "Replica",
    "ReplicaConfig",
    "ResponseRecord",
    "RootCauseAnalyzer",
    "SandboxManager",
    "ScalingEngine",
    "ScalingEvent",
    "ScalingTimings",
    "ServicePlacement",
    "SessionAggregator",
    "ShardStats",
    "ShardingError",
    "Tenant",
    "UpgradeReport",
    "TenantRegistry",
    "TenantService",
    "VmFootprint",
    "classify",
    "cost_reduction",
    "deployment_footprint",
    "hwhm_window",
    "pearson",
    "place_shard",
    "shard_stats",
]
