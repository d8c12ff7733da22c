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
spreads tunnels across cores. The model is the counts, not the wire
format: how many sessions the SmartNIC tracks per replica, and how the
tunnels land on its cores.
"""

from __future__ import annotations

from typing import List

from .replica import Replica, require_at_least

__all__ = ["SessionAggregator"]


class SessionAggregator:
    """Router-side aggregation of sessions into per-replica tunnels."""

    #: Outer source ports start here; tunnel *i* uses base + i.
    OUTER_SPORT_BASE = 40000

    def __init__(self, tunnels_per_core: int = 10):
        self.tunnels_per_core = tunnels_per_core
        require_at_least(self, "tunnels_per_core", 1)

    def tunnel_count(self, replica: Replica) -> int:
        return self.tunnels_per_core * replica.config.cores

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
