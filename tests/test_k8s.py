"""Tests for the Kubernetes-like cluster substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import sidecar_problems
from repro.k8s import (
    Cluster,
    Container,
    Pod,
    PodPhase,
    ResourceRequest,
    SchedulingError,
)
from repro.mesh import IstioMesh
from repro.netsim import Topology
from repro.simcore import Simulator


@pytest.fixture
def cluster():
    topo = Topology.single_az_testbed(worker_nodes=2)
    return Cluster("test", topo.all_nodes())


class TestScheduling:
    def test_pods_spread_over_workers(self, cluster):
        for i in range(10):
            cluster.create_pod(f"p{i}")
        per_node = {n.name: len(n.pods) for n in cluster.worker_nodes}
        assert set(per_node.values()) == {5}

    def test_master_gets_no_pods(self, cluster):
        for i in range(6):
            cluster.create_pod(f"p{i}")
        master = cluster.node_by_name("master")
        assert master.pods == []

    def test_scheduling_error_when_full(self):
        topo = Topology.single_az_testbed(worker_nodes=1)
        small = Cluster("small", topo.all_nodes(),
                        node_cpu_millicores=250, node_memory_mb=10_000)
        small.create_pod("fits", resources=ResourceRequest(200, 64))
        with pytest.raises(SchedulingError):
            small.create_pod("too-big", resources=ResourceRequest(100, 64))

    def test_pod_gets_unique_ip(self, cluster):
        a = cluster.create_pod("a")
        b = cluster.create_pod("b")
        assert a.ip != b.ip
        assert cluster.vpc.owner_of(a.ip) == "a"


class TestLifecycle:
    def test_create_pod_running(self, cluster):
        pod = cluster.create_pod("p")
        assert pod.phase is PodPhase.RUNNING
        assert pod.node_name in {"worker1", "worker2"}

    def test_delete_pod_frees_node(self, cluster):
        pod = cluster.create_pod("p")
        node = cluster.node_by_name(pod.node_name)
        cluster.delete_pod("p")
        assert pod.phase is PodPhase.TERMINATED
        assert pod not in node.pods

    def test_delete_unknown_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.delete_pod("ghost")

    def test_watch_events(self, cluster):
        events = []
        cluster.watch(events.append)
        cluster.create_pod("p")
        cluster.delete_pod("p")
        assert [(e.kind, e.action) for e in events] == [
            ("pod", "added"), ("pod", "deleted")]

    def test_admission_hook_mutates_pod(self, cluster):
        def inject(pod):
            pod.containers.append(Container("sidecar", is_sidecar=True))

        cluster.add_admission_hook(inject)
        pod = cluster.create_pod("p")
        assert pod.sidecar is not None


class TestDeployments:
    def test_create_deployment_scales_up(self, cluster):
        deploy = cluster.create_deployment("web", replicas=4)
        assert deploy.running_replicas == 4
        assert cluster.pod_count == 4

    def test_scale_down_removes_pods(self, cluster):
        cluster.create_deployment("web", replicas=4)
        cluster.scale_deployment("web", 2)
        assert cluster.pod_count == 2

    def test_negative_replicas_rejected(self, cluster):
        cluster.create_deployment("web", replicas=1)
        with pytest.raises(ValueError):
            cluster.scale_deployment("web", -1)

    def test_duplicate_deployment_rejected(self, cluster):
        cluster.create_deployment("web", replicas=1)
        with pytest.raises(ValueError):
            cluster.create_deployment("web", replicas=1)


class TestServices:
    def test_endpoints_match_selector(self, cluster):
        cluster.create_deployment("web", replicas=3, labels={"app": "web"})
        cluster.create_deployment("db", replicas=2, labels={"app": "db"})
        cluster.create_service("web", selector={"app": "web"})
        assert len(cluster.endpoints("web")) == 3

    def test_endpoints_track_scaling(self, cluster):
        cluster.create_deployment("web", replicas=3, labels={"app": "web"})
        cluster.create_service("web", selector={"app": "web"})
        cluster.scale_deployment("web", 1)
        assert len(cluster.endpoints("web")) == 1

    def test_service_gets_cluster_ip(self, cluster):
        service = cluster.create_service("web", selector={"app": "web"})
        assert service.cluster_ip is not None

    def test_duplicate_service_rejected(self, cluster):
        cluster.create_service("web", selector={})
        with pytest.raises(ValueError):
            cluster.create_service("web", selector={})


class TestResourceAccounting:
    def test_sidecar_vs_app_split(self, cluster):
        def inject(pod):
            pod.containers.append(Container(
                "sidecar", resources=ResourceRequest(100, 340),
                is_sidecar=True))

        cluster.add_admission_hook(inject)
        cluster.create_deployment("web", replicas=10,
                                  resources=ResourceRequest(800, 1024))
        usage = cluster.resource_usage()
        assert usage["sidecar_cpu_millicores"] == 1000
        assert usage["app_cpu_millicores"] == 8000
        assert usage["sidecar_memory_mb"] == 3400

    def test_pod_total_resources(self, cluster):
        pod = cluster.create_pod("p", resources=ResourceRequest(500, 256))
        pod.containers.append(Container(
            "sc", resources=ResourceRequest(100, 128), is_sidecar=True))
        total = pod.total_resources
        assert total.cpu_millicores == 600
        assert pod.app_resources.cpu_millicores == 500


class TestResourceRequestValidation:
    @pytest.mark.parametrize("field", ["cpu_millicores", "memory_mb"])
    @pytest.mark.parametrize("value", [-1, 1.5, 100.0, "100", None, True])
    def test_bad_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"ResourceRequest.{field}"):
            ResourceRequest(**{field: value})

    def test_zero_is_allowed(self):
        assert ResourceRequest(0, 0) + ResourceRequest(1, 2) == \
            ResourceRequest(1, 2)


def fresh_node_usage(node):
    """A node's used resources re-summed from its pods."""
    return (sum(p.total_resources.cpu_millicores for p in node.pods),
            sum(p.total_resources.memory_mb for p in node.pods))


def fresh_endpoints(cluster, service_name):
    """A service's endpoints recomputed by a scan over every pod."""
    service = cluster.services[service_name]
    return [pod for pod in cluster.pods.values()
            if pod.phase is PodPhase.RUNNING
            and pod.namespace == service.namespace
            and pod.matches(service.selector)]


#: Operations the churn property applies, each as (name, a, b) with
#: ``a``/``b`` reduced modulo whatever the operation indexes.
CHURN_OPS = ("create_pod", "delete_pod", "scale", "create_service")
APPS = ("web", "db", "cache")
NAMESPACES = ("default", "prod")


def apply_churn_op(cluster, op, a, b):
    if op == "create_pod":
        try:
            cluster.create_pod(
                labels={"app": APPS[a % len(APPS)]},
                resources=ResourceRequest(100 + 50 * (b % 8),
                                          64 + 32 * (a % 8)),
                namespace=NAMESPACES[b % len(NAMESPACES)])
        except SchedulingError:
            pass
    elif op == "delete_pod":
        if cluster.pods:
            names = list(cluster.pods)
            cluster.delete_pod(names[a % len(names)])
    elif op == "scale":
        names = sorted(cluster.deployments)
        try:
            cluster.scale_deployment(names[a % len(names)], b % 6)
        except SchedulingError:
            pass
    else:
        app = APPS[a % len(APPS)]
        namespace = NAMESPACES[b % len(NAMESPACES)]
        name = f"{app}-{namespace}"
        if name not in cluster.services:
            cluster.create_service(name, selector={"app": app},
                                   namespace=namespace)


class TestIncrementalState:
    """The node ledger and the endpoint index equal a fresh recompute."""

    @settings(max_examples=40, deadline=None)
    @given(st.booleans(),
           st.lists(st.tuples(st.sampled_from(CHURN_OPS),
                              st.integers(0, 10_000),
                              st.integers(0, 10_000)),
                    max_size=40))
    def test_ledger_and_endpoints_match_fresh_recompute(self, istio, ops):
        topo = Topology.single_az_testbed(worker_nodes=3)
        cluster = Cluster("churn", topo.all_nodes(),
                          node_cpu_millicores=2_000, node_memory_mb=4_096)
        if istio:
            IstioMesh(Simulator(0)).attach(cluster)
        cluster.create_deployment("web", replicas=2)
        cluster.create_deployment("db", replicas=1,
                                  resources=ResourceRequest(300, 256))
        cluster.create_service("web-default", selector={"app": "web"})
        for op, a, b in ops:
            apply_churn_op(cluster, op, a, b)
            for node in cluster.nodes:
                assert (node.cpu_millicores_used, node.memory_mb_used) \
                    == fresh_node_usage(node), (op, node.name)
            for name in cluster.services:
                endpoints = cluster.endpoints(name)
                assert endpoints == fresh_endpoints(cluster, name), \
                    (op, name)
                endpoints.append(None)  # callers own a fresh list
                assert cluster.endpoints(name) == \
                    fresh_endpoints(cluster, name)

    def test_watcher_sees_updated_endpoints(self, cluster):
        cluster.create_service("web", selector={"app": "web"})
        assert cluster.endpoints("web") == []
        seen = []
        cluster.watch(lambda event: seen.append(
            [p.name for p in cluster.endpoints("web")]))
        cluster.create_pod("w1", labels={"app": "web"})
        cluster.delete_pod("w1")
        assert seen == [["w1"], []]

    def test_table1_scheduling_sums_each_pod_at_most_twice(
            self, monkeypatch):
        """The scheduler charges a pod once, not once per comparison:
        re-summing every node's pods made 4.4M calls for table1's
        2,640 pods."""
        calls = []
        original = Pod.total_resources

        def counted(pod):
            calls.append(1)
            return original.fget(pod)

        monkeypatch.setattr(Pod, "total_resources", property(counted))
        scale, pods = 0.1, 0
        for row in sidecar_problems._TABLE1_CLUSTERS:
            sidecar_problems._table1_point((row, scale, 3))
            pods += max(4, int(row[1] * scale))
        assert pods == 2_640
        assert len(calls) <= 2 * pods, len(calls)
