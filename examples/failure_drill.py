#!/usr/bin/env python
"""Failure drill: hierarchical recovery + shuffle-shard isolation +
Beamer-style session consistency (Fig 8, Fig 26, §4.2/§4.4).

Walks the gateway through the three failure levels — replica, backend,
whole AZ — then a full "query of death" against one service, and ends
with a replica-drain showing the redirector keeping established
sessions pinned while steering new ones away.

Run:  python examples/failure_drill.py
"""

from repro.core import DisaggregatedLB, Replica
from repro.core.replica import ReplicaConfig
from repro.experiments.cloud_ops import build_production_gateway
from repro.faults import Fault, FaultEngine, FaultPlan
from repro.netsim import FiveTuple
from repro.simcore import Simulator


def summarize(gateway, label):
    down = [sid for sid in gateway.service_backends
            if gateway.service_outage(sid)]
    total = len(gateway.service_backends)
    print(f"  [{label}] services up: {total - len(down)}/{total}"
          + (f"  DOWN: {down}" if down else ""))


def hierarchy_drill() -> None:
    print("=== hierarchical failure recovery (Fig 8) ===")
    sim = Simulator(seed=43)
    gateway, services = build_production_gateway(
        sim, azs=3, backends_per_az=6, services=10)
    for service in services:
        gateway.set_service_load(service.service_id, 20_000.0)
    victim_service = services[0]
    victim_backends = gateway.service_backends[victim_service.service_id]
    print(f"service under test: {victim_service.qualified_name} on "
          f"{[b.name for b in victim_backends]}")

    replica = victim_backends[0].replicas[0]
    replica.add_sessions(5_000)
    disrupted = gateway.fail_replica(victim_backends[0].name, replica.name)
    print(f"\nlevel 1 — replica {replica.name} fails "
          f"({disrupted} sessions briefly disrupted, "
          f"re-established on siblings)")
    summarize(gateway, "replica down")

    gateway.fail_backend(victim_backends[0].name)
    print(f"\nlevel 2 — backend {victim_backends[0].name} fails entirely")
    summarize(gateway, "backend down")

    gateway.fail_az("az1")
    print("\nlevel 3 — all of az1 goes dark (power outage)")
    summarize(gateway, "az1 down")
    record = gateway.dns.resolve(
        f"svc-{victim_service.service_id}.mesh.gateway", client_az="az1")
    print(f"  DNS for an az1 client now resolves to: {record.az}")
    gateway.recover_az("az1")
    gateway.recover_backend(victim_backends[0].name)

    print("\nquery of death — every backend of the victim service dies:")
    FaultEngine(sim, gateway=gateway).arm(FaultPlan.of(Fault(
        kind="query_of_death", at=sim.now,
        target=str(victim_service.service_id))))
    sim.run()
    summarize(gateway, "query of death")
    survivors = sum(1 for sid in gateway.service_backends
                    if sid != victim_service.service_id
                    and not gateway.service_outage(sid))
    print(f"  shuffle sharding kept {survivors} of {len(services) - 1} "
          f"other services fully available")


def drain_drill() -> None:
    print("\n=== redirector session consistency (Fig 26) ===")
    sim = Simulator(seed=67)
    replicas = [Replica(sim, f"ip{i + 1}", "az1", ReplicaConfig())
                for i in range(3)]
    lb = DisaggregatedLB(service_id=1, replicas=replicas)

    flows = [FiveTuple(f"10.1.0.{i + 1}", 40_000 + i, "10.9.9.9", 443)
             for i in range(60)]
    owners = {f: lb.deliver(f, is_syn=True).replica.name for f in flows}
    on_ip2 = [f for f, owner in owners.items() if owner == "ip2"]
    print(f"established 60 flows; {len(on_ip2)} landed on ip2")

    lb.drain_replica("ip2")
    print("draining ip2: router stops hashing to it; bucket chains "
          "prepended with replacements")
    sticky = sum(1 for f in flows
                 if lb.deliver(f, is_syn=False).replica.name == owners[f])
    hops = [lb.deliver(f, is_syn=False).redirection_hops for f in on_ip2]
    print(f"  established flows still reaching their replica: {sticky}/60")
    print(f"  chained deliveries to ip2 take "
          f"{max(hops) if hops else 0} redirection hop(s)")

    fresh = [FiveTuple(f"10.2.0.{i + 1}", 50_000 + i, "10.9.9.9", 443)
             for i in range(40)]
    landed_ip2 = sum(1 for f in fresh
                     if lb.deliver(f, is_syn=True).replica.name == "ip2")
    print(f"  new flows landed on draining ip2: {landed_ip2} (expected 0)")

    for f in flows + fresh:
        lb.close_flow(f)
    lb.retire_replica("ip2")
    print("  all flows aged out → ip2 retired cleanly; replicas now: "
          f"{lb.replica_names()}")


def main() -> None:
    hierarchy_drill()
    drain_drill()


if __name__ == "__main__":
    main()
