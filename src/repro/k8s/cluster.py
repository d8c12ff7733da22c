"""A Kubernetes-like cluster: nodes, scheduling, services, watch events.

The cluster is deliberately mesh-agnostic: the three mesh architectures
subscribe to its watch stream (pod/service add/update/delete) and react
— Istio injects sidecars on admission, Ambient runs per-node/per-service
proxies, Canal registers services at the remote gateway. That admission
hook is how sidecar *intrusion* is modeled: injected containers consume
node resources the user bought for apps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..netsim import Cidr, Vpc
from ..netsim.topology import HostNode
from .objects import (
    Container,
    Deployment,
    Pod,
    PodPhase,
    ResourceRequest,
    Service,
)

__all__ = ["ClusterNode", "WatchEvent", "Cluster", "SchedulingError"]


class SchedulingError(RuntimeError):
    """No node has room for a pod."""


@dataclass
class ClusterNode:
    """A K8s worker/master node bound to a physical host.

    ``cpu_millicores_used``/``memory_mb_used`` are a ledger of what the
    scheduler charged for ``pods``: the cluster adds a pod's total
    request when it binds the pod here and subtracts it on deletion.
    """

    host: HostNode
    cpu_millicores_capacity: int = 16000
    memory_mb_capacity: int = 65536
    role: str = "worker"
    pods: List[Pod] = field(default_factory=list)
    cpu_millicores_used: int = 0
    memory_mb_used: int = 0

    @property
    def name(self) -> str:
        return self.host.name

    def fits(self, request: ResourceRequest) -> bool:
        return (self.cpu_millicores_used + request.cpu_millicores
                <= self.cpu_millicores_capacity
                and self.memory_mb_used + request.memory_mb
                <= self.memory_mb_capacity)


@dataclass(frozen=True)
class WatchEvent:
    """One entry of the cluster's watch stream."""

    kind: str     # "pod" | "service"
    action: str   # "added" | "updated" | "deleted"
    name: str
    obj: object


class Cluster:
    """One tenant's Kubernetes cluster."""

    def __init__(self, name: str, nodes: List[HostNode], tenant: str = "tenant1",
                 pod_cidr: str = "10.0.0.0/16", vni: int = 100,
                 node_cpu_millicores: int = 16000,
                 node_memory_mb: int = 65536):
        self.name = name
        self.tenant = tenant
        self.vpc = Vpc(tenant=tenant, name=f"{name}-vpc",
                       cidr=Cidr.parse(pod_cidr), vni=vni)
        self.nodes: List[ClusterNode] = []
        for index, host in enumerate(nodes):
            role = "master" if index == 0 and len(nodes) > 1 else "worker"
            self.nodes.append(ClusterNode(
                host=host, role=role,
                cpu_millicores_capacity=node_cpu_millicores,
                memory_mb_capacity=node_memory_mb))
        self.pods: Dict[str, Pod] = {}
        self.services: Dict[str, Service] = {}
        self.deployments: Dict[str, Deployment] = {}
        self._watchers: List[Callable[[WatchEvent], None]] = []
        self._admission_hooks: List[Callable[[Pod], None]] = []
        self._pod_counter = 0
        #: service name -> its running endpoints in pod insertion order;
        #: an entry is dropped when a pod it selects is added or deleted.
        self._endpoints: Dict[str, List[Pod]] = {}

    # -- watch / admission ---------------------------------------------------
    def watch(self, callback: Callable[[WatchEvent], None]) -> None:
        """Subscribe to the cluster's event stream (mesh control planes)."""
        self._watchers.append(callback)

    def add_admission_hook(self, hook: Callable[[Pod], None]) -> None:
        """Mutating admission webhook — how Istio injects sidecars."""
        self._admission_hooks.append(hook)

    def _emit(self, event: WatchEvent) -> None:
        for watcher in list(self._watchers):
            watcher(event)

    # -- workers ---------------------------------------------------------------
    @property
    def worker_nodes(self) -> List[ClusterNode]:
        workers = [n for n in self.nodes if n.role == "worker"]
        return workers if workers else self.nodes

    def node_by_name(self, name: str) -> ClusterNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in cluster {self.name}")

    # -- pod lifecycle -----------------------------------------------------------
    def create_pod(self, name: str = "", labels: Optional[Dict[str, str]] = None,
                   resources: Optional[ResourceRequest] = None,
                   namespace: str = "default") -> Pod:
        """Admit, schedule, and start a pod."""
        self._pod_counter += 1
        pod = Pod(name=name or f"pod-{self._pod_counter}",
                  namespace=namespace, tenant=self.tenant,
                  labels=dict(labels or {}))
        pod.containers.append(Container(
            name="app", resources=resources or ResourceRequest()))
        for hook in self._admission_hooks:
            hook(pod)
        self._schedule(pod)
        pod.ip = self.vpc.allocate(owner=pod.name)
        pod.phase = PodPhase.RUNNING
        self.pods[pod.name] = pod
        self._invalidate_endpoints(pod)
        self._emit(WatchEvent("pod", "added", pod.name, pod))
        return pod

    def delete_pod(self, name: str) -> None:
        pod = self.pods.pop(name, None)
        if pod is None:
            raise KeyError(f"no pod named {name!r}")
        pod.phase = PodPhase.TERMINATED
        self._invalidate_endpoints(pod)
        node = self.node_by_name(pod.node_name)
        node.pods.remove(pod)
        request = pod.total_resources
        node.cpu_millicores_used -= request.cpu_millicores
        node.memory_mb_used -= request.memory_mb
        self._emit(WatchEvent("pod", "deleted", pod.name, pod))

    def _schedule(self, pod: Pod) -> None:
        """Least-allocated spread over worker nodes."""
        request = pod.total_resources
        candidates = [n for n in self.worker_nodes if n.fits(request)]
        if not candidates:
            raise SchedulingError(
                f"no node fits pod {pod.name} ({request})")
        target = min(candidates, key=lambda n: n.cpu_millicores_used)
        target.pods.append(pod)
        target.cpu_millicores_used += request.cpu_millicores
        target.memory_mb_used += request.memory_mb
        pod.node_name = target.name

    # -- services ---------------------------------------------------------------
    def create_service(self, name: str, selector: Dict[str, str],
                       port: int = 80, namespace: str = "default") -> Service:
        if name in self.services:
            raise ValueError(f"duplicate service {name!r}")
        service = Service(name=name, namespace=namespace, tenant=self.tenant,
                          selector=dict(selector), port=port,
                          cluster_ip=self.vpc.allocate(owner=f"svc/{name}"))
        self.services[name] = service
        self._emit(WatchEvent("service", "added", name, service))
        return service

    def endpoints(self, service_name: str) -> List[Pod]:
        """Running pods currently selected by a service (a fresh list)."""
        cached = self._endpoints.get(service_name)
        if cached is None:
            service = self.services[service_name]
            cached = [pod for pod in self.pods.values()
                      if pod.phase is PodPhase.RUNNING
                      and pod.namespace == service.namespace
                      and pod.matches(service.selector)]
            self._endpoints[service_name] = cached
        return list(cached)

    def _invalidate_endpoints(self, pod: Pod) -> None:
        """Drop the cached endpoints of every service selecting ``pod``
        (called when it is added, deleted or changes phase)."""
        for name in [name for name in self._endpoints
                     if pod.namespace == self.services[name].namespace
                     and pod.matches(self.services[name].selector)]:
            del self._endpoints[name]

    # -- deployments ---------------------------------------------------------------
    def create_deployment(self, name: str, replicas: int,
                          labels: Optional[Dict[str, str]] = None,
                          resources: Optional[ResourceRequest] = None,
                          namespace: str = "default") -> Deployment:
        if name in self.deployments:
            raise ValueError(f"duplicate deployment {name!r}")
        deployment = Deployment(
            name=name, namespace=namespace, tenant=self.tenant,
            replicas=0, labels=dict(labels or {"app": name}),
            template_resources=resources or ResourceRequest())
        self.deployments[name] = deployment
        self.scale_deployment(name, replicas)
        return deployment

    def scale_deployment(self, name: str, replicas: int) -> Deployment:
        """Reconcile pod count to the new desired replicas."""
        if replicas < 0:
            raise ValueError(f"negative replica count {replicas}")
        deployment = self.deployments[name]
        while deployment.running_replicas < replicas:
            pod = self.create_pod(
                name=f"{name}-{len(deployment.pods) + 1}",
                labels=deployment.labels,
                resources=deployment.template_resources,
                namespace=deployment.namespace)
            deployment.pods.append(pod)
        while deployment.running_replicas > replicas:
            victim = next(p for p in reversed(deployment.pods)
                          if p.phase is PodPhase.RUNNING)
            self.delete_pod(victim.name)
        deployment.replicas = replicas
        return deployment

    # -- cluster-wide accounting --------------------------------------------------
    @property
    def pod_count(self) -> int:
        return len(self.pods)

    def resource_usage(self) -> Dict[str, int]:
        """Cluster totals split into app vs sidecar shares."""
        app_cpu = sidecar_cpu = app_mem = sidecar_mem = 0
        for pod in self.pods.values():
            for container in pod.containers:
                if container.is_sidecar:
                    sidecar_cpu += container.resources.cpu_millicores
                    sidecar_mem += container.resources.memory_mb
                else:
                    app_cpu += container.resources.cpu_millicores
                    app_mem += container.resources.memory_mb
        return {
            "app_cpu_millicores": app_cpu,
            "sidecar_cpu_millicores": sidecar_cpu,
            "app_memory_mb": app_mem,
            "sidecar_memory_mb": sidecar_mem,
            "capacity_cpu_millicores": sum(
                n.cpu_millicores_capacity for n in self.nodes),
            "capacity_memory_mb": sum(
                n.memory_mb_capacity for n in self.nodes),
        }
