"""Service-mesh common layer and the two baseline architectures.

* the calibrated cost model shared by every comparison experiment;
* the HTTP/L7 routing and zero-trust policy objects;
* the generic proxy engine (CPU tiers, connections);
* the Istio-style per-pod sidecar mesh and the Ambient-style
  ztunnel/waypoint mesh;
* the control-plane build/push models.

Canal itself lives in ``repro.core`` and builds on these.
"""

from .ambient import AmbientMesh
from .base import MeshError, ServiceMesh
from .controlplane import (
    AmbientControlPlane,
    ConfigTarget,
    ControlPlane,
    ControlPlaneCosts,
    IstioControlPlane,
    PushReport,
)
from .costs import DEFAULT_COSTS, MeshCostModel
from .http import (
    HttpMatch,
    HttpRequest,
    HttpResponse,
    RouteError,
    RouteRule,
    RouteTable,
    WeightedDestination,
)
from .istio import IstioMesh
from .noop import NoMesh
from .policy import AuthorizationPolicy, AuthorizationTable
from .proxy import Connection, ProxyTier

__all__ = [
    "AmbientControlPlane",
    "AmbientMesh",
    "AuthorizationPolicy",
    "AuthorizationTable",
    "ConfigTarget",
    "Connection",
    "ControlPlane",
    "ControlPlaneCosts",
    "DEFAULT_COSTS",
    "HttpMatch",
    "HttpRequest",
    "HttpResponse",
    "IstioControlPlane",
    "IstioMesh",
    "MeshCostModel",
    "MeshError",
    "NoMesh",
    "ProxyTier",
    "PushReport",
    "RouteError",
    "RouteRule",
    "RouteTable",
    "ServiceMesh",
    "WeightedDestination",
]
