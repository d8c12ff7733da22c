"""Kubernetes-style API objects: containers, pods, services, deployments.

Only the fields the mesh architectures dispatch on are modeled: resource
requests (for the intrusion/occupation analyses), labels and selectors
(for service membership), and lifecycle state (for control-plane
configuration churn).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

__all__ = ["PodPhase", "Container", "Pod", "Service", "Deployment",
           "ResourceRequest"]


@dataclass(frozen=True)
class ResourceRequest:
    """CPU/memory a container asks the scheduler for."""

    cpu_millicores: int = 100
    memory_mb: int = 128

    def __post_init__(self):
        for name in ("cpu_millicores", "memory_mb"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"ResourceRequest.{name} must be an int "
                                 f">= 0, got {value!r}")

    def __add__(self, other: "ResourceRequest") -> "ResourceRequest":
        return ResourceRequest(self.cpu_millicores + other.cpu_millicores,
                               self.memory_mb + other.memory_mb)


class PodPhase(Enum):
    PENDING = "pending"
    RUNNING = "running"
    TERMINATED = "terminated"


@dataclass
class Container:
    """One container in a pod (the app, or an injected sidecar)."""

    name: str
    resources: ResourceRequest = field(default_factory=ResourceRequest)
    is_sidecar: bool = False


@dataclass
class Pod:
    """The schedulable unit. Sidecar meshes inject containers into it."""

    name: str
    namespace: str = "default"
    tenant: str = "tenant1"
    labels: Dict[str, str] = field(default_factory=dict)
    containers: List[Container] = field(default_factory=list)
    phase: PodPhase = PodPhase.PENDING
    node_name: Optional[str] = None
    ip: Optional[str] = None

    @property
    def total_resources(self) -> ResourceRequest:
        total = ResourceRequest(0, 0)
        for container in self.containers:
            total = total + container.resources
        return total

    @property
    def sidecar(self) -> Optional[Container]:
        for container in self.containers:
            if container.is_sidecar:
                return container
        return None

    @property
    def app_resources(self) -> ResourceRequest:
        total = ResourceRequest(0, 0)
        for container in self.containers:
            if not container.is_sidecar:
                total = total + container.resources
        return total

    def matches(self, selector: Dict[str, str]) -> bool:
        return all(self.labels.get(k) == v for k, v in selector.items())


@dataclass
class Service:
    """A named set of pods selected by labels."""

    name: str
    namespace: str = "default"
    tenant: str = "tenant1"
    selector: Dict[str, str] = field(default_factory=dict)
    port: int = 80
    cluster_ip: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.namespace}/{self.name}"


@dataclass
class Deployment:
    """Desired-state replica management for one pod template."""

    name: str
    namespace: str = "default"
    tenant: str = "tenant1"
    replicas: int = 1
    labels: Dict[str, str] = field(default_factory=dict)
    template_resources: ResourceRequest = field(default_factory=ResourceRequest)
    pods: List[Pod] = field(default_factory=list)

    @property
    def running_replicas(self) -> int:
        return sum(1 for pod in self.pods if pod.phase is PodPhase.RUNNING)
