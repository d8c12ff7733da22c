"""LB disaggregation: ECMP up front + Beamer-style redirectors (§4.4).

Instead of dedicated load-balancer VMs, Canal reuses the router's ECMP
for load distribution and adds a *redirector* at each replica to repair
session consistency when the replica list changes. Each service has a
fixed-size bucket table (identical on every replica, maintained by the
controller); each bucket holds a *replica chain* sorted by priority.

Canal's modifications over Beamer (§4.4): chains longer than 2 (to
survive several scale events in a short period), *per-service* bucket
tables indexed by service ID, and an eBPF fast path (priced at 12–15×
less than an L7 pass).

Packet semantics (Appendix C, Fig 26):

* SYN packets are processed at the highest-priority *accepting* replica
  of their bucket's chain — new flows land on new replicas.
* Non-SYN packets chase the chain until a replica owns the flow in its
  kernel flow table; each extra position visited is one redirection hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netsim import EcmpRouter, FiveTuple
from .replica import Replica

__all__ = ["FlowStore", "BucketTable", "DisaggregatedLB", "DeliveryResult"]

#: Redirector processing cost relative to an L7 pass (paper: 12–15×
#: smaller); used by the cost-reduction analysis in Table 5.
REDIRECTOR_COST_RATIO = 1.0 / 13.0


class FlowStore:
    """Which replica owns each established flow (kernel flow records)."""

    def __init__(self):
        self._owner: Dict[FiveTuple, str] = {}

    def owner(self, flow: FiveTuple) -> Optional[str]:
        return self._owner.get(flow)

    def install(self, flow: FiveTuple, replica_name: str) -> None:
        self._owner[flow] = replica_name

    def remove(self, flow: FiveTuple) -> None:
        self._owner.pop(flow, None)

    def flows_on(self, replica_name: str) -> List[FiveTuple]:
        return [flow for flow, owner in self._owner.items()
                if owner == replica_name]

    def __len__(self) -> int:
        return len(self._owner)


class BucketTable:
    """Per-service bucket → replica-chain mapping (same on all replicas)."""

    def __init__(self, service_id: int, num_buckets: int = 64,
                 max_chain: int = 4):
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        if max_chain < 2:
            raise ValueError("chain length below Beamer's minimum of 2")
        self.service_id = service_id
        self.num_buckets = num_buckets
        self.max_chain = max_chain
        self._chains: List[List[str]] = [[] for _ in range(num_buckets)]

    def build(self, replica_names: List[str]) -> None:
        """Initial even assignment of buckets to replicas."""
        if not replica_names:
            raise ValueError("cannot build a bucket table with no replicas")
        for index in range(self.num_buckets):
            self._chains[index] = [replica_names[index % len(replica_names)]]

    def bucket_of(self, flow: FiveTuple) -> int:
        return flow.flow_hash(salt=self.service_id) % self.num_buckets

    def chain_for(self, flow: FiveTuple) -> List[str]:
        return list(self._chains[self.bucket_of(flow)])

    def chain_at(self, bucket: int) -> List[str]:
        return list(self._chains[bucket])

    def buckets_headed_by(self, replica_name: str) -> List[int]:
        return [i for i, chain in enumerate(self._chains)
                if chain and chain[0] == replica_name]

    def prepare_offline(self, replica_name: str,
                        replacement_names: List[str]) -> int:
        """Prepend a replacement in every bucket containing the replica.

        New flows then land on the replacement while existing flows keep
        chasing the chain back to the draining replica. Returns the
        number of buckets updated.
        """
        if not replacement_names:
            raise ValueError("need at least one replacement replica")
        updated = 0
        for index, chain in enumerate(self._chains):
            if replica_name in chain:
                replacement = replacement_names[index % len(replacement_names)]
                if replacement == replica_name:
                    continue
                chain.insert(0, replacement)
                del chain[self.max_chain:]
                updated += 1
        return updated

    def add_replica(self, replica_name: str, share: float = None) -> int:
        """Give a new replica the head position of a share of buckets.

        ``share`` defaults to 1/(distinct replicas + 1) — an even
        portion. Old heads stay second in the chain so established flows
        survive. Returns the number of buckets reassigned.
        """
        heads = {chain[0] for chain in self._chains if chain}
        if share is None:
            share = 1.0 / (len(heads) + 1)
        take = max(1, int(self.num_buckets * share))
        reassigned = 0
        for chain in self._chains:
            if reassigned >= take:
                break
            if chain and chain[0] == replica_name:
                continue
            chain.insert(0, replica_name)
            del chain[self.max_chain:]
            reassigned += 1
        return reassigned

    def remove_replica(self, replica_name: str) -> None:
        """Purge a fully drained replica from every chain."""
        for chain in self._chains:
            while replica_name in chain:
                chain.remove(replica_name)

    def max_chain_length(self) -> int:
        return max((len(chain) for chain in self._chains), default=0)


@dataclass(frozen=True)
class DeliveryResult:
    """Where a packet ended up and what it cost to get there."""

    replica: Replica
    redirection_hops: int
    is_new_flow: bool


class DisaggregatedLB:
    """ECMP router + per-replica redirectors for one service."""

    def __init__(self, service_id: int, replicas: List[Replica],
                 num_buckets: int = 64, max_chain: int = 4):
        if not replicas:
            raise ValueError("DisaggregatedLB needs at least one replica")
        self.service_id = service_id
        self._replicas: Dict[str, Replica] = {r.name: r for r in replicas}
        self.router: EcmpRouter[str] = EcmpRouter(
            [r.name for r in replicas], salt=service_id)
        self.table = BucketTable(service_id, num_buckets=num_buckets,
                                 max_chain=max_chain)
        self.table.build([r.name for r in replicas])
        self.flows = FlowStore()
        #: Bumped by every change that can move an established flow:
        #: the router, the bucket table, the replica set, or a closed
        #: flow. A caller may reuse an established flow's
        #: :class:`DeliveryResult` while the epoch it saw still holds,
        #: until that flow itself is delivered as new.
        self.epoch = 0
        self.packets_delivered = 0
        self.packets_redirected = 0

    # -- replica membership ---------------------------------------------------
    def replica(self, name: str) -> Replica:
        return self._replicas[name]

    def replica_names(self) -> List[str]:
        return list(self._replicas)

    def add_replica(self, replica: Replica) -> None:
        if replica.name in self._replicas:
            raise ValueError(f"duplicate replica {replica.name}")
        self._replicas[replica.name] = replica
        self.router.add_next_hop(replica.name)
        self.table.add_replica(replica.name)
        self.epoch += 1

    def drain_replica(self, name: str) -> None:
        """Begin taking a replica offline (Fig 26's IP2 scenario)."""
        replica = self._replicas[name]
        replica.draining = True
        replacements = [n for n, r in self._replicas.items()
                        if r.healthy and not r.draining]
        if not replacements:
            raise RuntimeError(
                f"no replacement replicas available to drain {name}")
        self.table.prepare_offline(name, replacements)
        # The router stops hashing to it; the redirectors still know it.
        if name in self.router.next_hops:
            self.router.remove_next_hop(name)
        self.epoch += 1

    def retire_replica(self, name: str) -> int:
        """Finish the drain once the replica's flows have aged out."""
        remaining = len(self.flows.flows_on(name))
        if remaining:
            raise RuntimeError(
                f"replica {name} still owns {remaining} flows")
        self.table.remove_replica(name)
        del self._replicas[name]
        self.epoch += 1
        return remaining

    # -- dataplane --------------------------------------------------------------
    def deliver(self, flow: FiveTuple, is_syn: bool) -> DeliveryResult:
        """Route one packet per the Beamer semantics."""
        entry_name = self.router.select(flow) if len(self.router) else None
        chain = self.table.chain_for(flow)
        if not chain:
            raise RuntimeError(
                f"bucket for {flow} has an empty chain (service "
                f"{self.service_id})")
        hops = 0
        if entry_name is not None and entry_name != chain[0]:
            hops += 1  # entry replica forwards to the chain head

        if is_syn:
            target_name = self._first_accepting(chain)
            self.flows.install(flow, target_name)
            self._count(hops)
            return DeliveryResult(self._replicas[target_name], hops, True)

        owner = self.flows.owner(flow)
        if owner is not None and owner in chain:
            # Chase the chain down to the owner; each position visited
            # past the head is one redirection hop.
            hops += chain.index(owner)
            self._count(hops)
            return DeliveryResult(self._replicas[owner], hops, False)

        # Unknown flow (e.g. owner already retired): treat as new.
        target_name = self._first_accepting(chain)
        self.flows.install(flow, target_name)
        self._count(hops)
        return DeliveryResult(self._replicas[target_name], hops, True)

    def redeliver(self, result: DeliveryResult) -> DeliveryResult:
        """Route one more packet of an established flow along ``result``.

        The caller vouches that ``result`` came from :meth:`deliver` for
        this flow at the current :attr:`epoch`, and that the flow has
        not been delivered as new since, so the chain walk would land on
        the same replica; only the packet counters move.
        """
        self._count(result.redirection_hops)
        return result

    def _count(self, hops: int) -> None:
        self.packets_delivered += 1
        if hops:
            self.packets_redirected += 1

    def _first_accepting(self, chain: List[str]) -> str:
        for name in chain:
            replica = self._replicas.get(name)
            if replica is not None and replica.healthy and not replica.draining:
                return name
        raise RuntimeError(
            f"no accepting replica in chain {chain} for service "
            f"{self.service_id}")

    def close_flow(self, flow: FiveTuple) -> None:
        self.flows.remove(flow)
        self.epoch += 1