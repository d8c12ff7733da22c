#!/usr/bin/env python
"""Proxyless mode: a tenant whose nodes are off limits (Appendix B).

The customer blocks all third-party software on their nodes — even
Canal's minimal on-node proxy. The proxyless variant serves them via
DNS redirection to the gateway, authenticates workloads through
per-container virtual network interfaces (ENIs), and accepts the
trade-offs: partial observability and the ENI-per-container limits.

Run:  python examples/proxyless_tenant.py
"""

from repro.core import EniLimitExceeded, EniRegistry, ProxylessCanalMesh
from repro.core.canal import CanalMesh
from repro.experiments.testbed import build_testbed
from repro.k8s import Cluster
from repro.mesh import HttpRequest
from repro.netsim import Topology
from repro.obs.trace import TraceCollector
from repro.simcore import Simulator
from repro.workloads import ClosedLoopDriver


def build_proxyless():
    sim = Simulator(seed=7)
    cluster = Cluster("locked-down",
                      Topology.single_az_testbed(2).all_nodes())
    mesh = ProxylessCanalMesh(sim, eni_registry=EniRegistry(
        max_per_node=20, memory_mb_per_eni=16))
    mesh.attach(cluster)
    for index in range(3):
        cluster.create_deployment(f"svc{index}", replicas=5,
                                  labels={"app": f"svc{index}"})
        cluster.create_service(f"svc{index}",
                               selector={"app": f"svc{index}"})
    return sim, cluster, mesh


def main() -> None:
    print("=== proxyless Canal: nothing of ours on the user's nodes ===")
    sim, cluster, mesh = build_proxyless()

    print("\nDNS redirection installed for the tenant's services:")
    for name, target in mesh.dns_redirections.items():
        print(f"  {name} → {target}")

    client = cluster.pods["svc0-1"]
    eni = mesh.enis.eni_of(client.name)
    print(f"\nworkload identity via ENI: {client.name} ↔ {eni.eni_id} "
          f"(node memory for ENIs on {client.node_name}: "
          f"{mesh.enis.node_memory_mb(client.node_name)} MB)")
    print(f"  spoofed token accepted? "
          f"{mesh.enis.authenticate(client.name, 'forged-token')}")

    driver = ClosedLoopDriver(sim, mesh, client, "svc1", connections=1,
                              requests_per_connection=50, think_time_s=0.1)
    process = sim.process(driver.run())
    sim.run()
    report = process.value
    print(f"\n50 requests: mean latency {report.latency.mean * 1e3:.2f} ms, "
          f"errors {report.error_count}")
    print(f"user-cluster proxy CPU consumed: {mesh.user_cpu_seconds():.3f} "
          f"core-seconds (there are no proxies to consume any)")
    print(f"gateway-side CPU: {mesh.infra_cpu_seconds() * 1e3:.1f} ms")

    print("\n--- the trade-off: observability coverage ---")
    collector = TraceCollector()
    full = build_testbed("canal", mesh_kwargs={"tracing": collector})

    def one_traced():
        connection = yield from full.mesh.open_connection(
            full.client_pod, "svc1")
        yield from full.mesh.request(connection, HttpRequest())

    full.sim.process(one_traced())
    full.sim.run()
    trace = collector.traces()[0]
    print(f"  full Canal trace layers: {trace.layers()} → coverage "
          f"{trace.coverage!r}")
    print(f"  proxyless coverage: {mesh.observability_coverage!r} "
          f"(only the gateway can instrument)")

    print("\n--- the other trade-off: the per-node ENI limit ---")
    tight_sim = Simulator(0)
    tight_cluster = Cluster("tight",
                            Topology.single_az_testbed(1).all_nodes())
    tight = ProxylessCanalMesh(tight_sim,
                               eni_registry=EniRegistry(max_per_node=3))
    tight.attach(tight_cluster)
    created = 0
    try:
        for index in range(10):
            tight_cluster.create_pod(f"p{index}")
            created += 1
    except EniLimitExceeded as exc:
        print(f"  created {created} pods, then: {exc}")


if __name__ == "__main__":
    main()
