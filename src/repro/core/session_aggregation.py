"""Session aggregation via VXLAN tunneling (§4.4, Fig 9).

Replica session state lives in memory-constrained SmartNICs; once the
table is full, more VMs must be bought even though CPU sits near 20 %.
Canal aggregates many user sessions into a few VXLAN tunnels at the
router (Tofino line rate), so the underlay/SmartNIC tracks only the
tunnels. A disaggregator on the replica strips the outer header (CPU
cost measured "insignificant") before the redirector and L7 engine see
the original sessions.

Tunnel count is chosen as a multiple of replica cores (paper: ~10×),
and the outer source port varies per tunnel so the vSwitch's RSS hash
spreads tunnels across cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..netsim import FiveTuple, Packet, VXLAN_OVERHEAD_BYTES, VxlanHeader
from .replica import Replica

__all__ = ["SessionAggregator", "MtuError"]


class MtuError(ValueError):
    """Encapsulated packet would exceed the device MTU."""


@dataclass
class TunnelStats:
    packets: int = 0
    bytes: int = 0


class SessionAggregator:
    """Router-side encapsulation of sessions into per-replica tunnels."""

    #: Outer source ports start here; tunnel *i* uses base + i.
    OUTER_SPORT_BASE = 40000

    def __init__(self, router_ip: str, vni: int,
                 tunnels_per_core: int = 10, mtu_bytes: int = 1550):
        if tunnels_per_core < 1:
            raise ValueError("need at least one tunnel per core")
        self.router_ip = router_ip
        self.vni = vni
        self.tunnels_per_core = tunnels_per_core
        #: Paper: "we adjusted the device's MTU limit" to absorb the
        #: VXLAN header; default allows a standard 1500-byte inner.
        self.mtu_bytes = mtu_bytes
        self.stats: Dict[int, TunnelStats] = {}

    def tunnel_count(self, replica: Replica) -> int:
        return self.tunnels_per_core * replica.config.cores

    def tunnel_index(self, flow: FiveTuple, replica: Replica) -> int:
        return flow.flow_hash(salt=self.vni) % self.tunnel_count(replica)

    def encapsulate(self, packet: Packet, replica_ip: str,
                    replica: Replica) -> Packet:
        """Wrap a session packet into its replica-bound tunnel."""
        if packet.size_bytes + VXLAN_OVERHEAD_BYTES > self.mtu_bytes:
            raise MtuError(
                f"{packet.size_bytes}B + VXLAN overhead exceeds MTU "
                f"{self.mtu_bytes} — raise the device MTU")
        index = self.tunnel_index(packet.five_tuple, replica)
        header = VxlanHeader(
            vni=self.vni, outer_src_ip=self.router_ip,
            outer_dst_ip=replica_ip,
            outer_src_port=self.OUTER_SPORT_BASE + index)
        stats = self.stats.setdefault(index, TunnelStats())
        stats.packets += 1
        stats.bytes += packet.size_bytes + VXLAN_OVERHEAD_BYTES
        return packet.encapsulate(header)

    def underlay_sessions(self, replica: Replica,
                          user_sessions: int) -> int:
        """Sessions the SmartNIC must track for a replica's traffic.

        Without aggregation that is ``user_sessions``; with it, at most
        one per tunnel.
        """
        return min(user_sessions, self.tunnel_count(replica))

    def core_spread(self, replica: Replica) -> List[int]:
        """How the replica's tunnels hash onto its cores (RSS model)."""
        cores = replica.config.cores
        counts = [0] * cores
        for index in range(self.tunnel_count(replica)):
            # RSS hashes the outer five-tuple; the outer sport is the
            # only varying field, so model core choice as sport mod cores.
            counts[(self.OUTER_SPORT_BASE + index) % cores] += 1
        return counts
