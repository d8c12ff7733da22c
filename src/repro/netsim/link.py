"""Bandwidth-limited links for control-plane (southbound) transfers.

The paper's southbound-overhead analysis (§2.1) hinges on serialized
configuration pushes saturating a shared link (their customer's 100 Mbps
VPN peaked at 120 Mbps of update traffic). A :class:`Link` serializes
transfers through a one-core FIFO server, so concurrent pushes queue and
completion time grows with total bytes — exactly the effect measured in
Figs 4, 14, and 15.
"""

from __future__ import annotations

from ..simcore import CpuResource, Simulator

__all__ = ["Link"]


class Link:
    """A point-to-point link with bandwidth and propagation latency."""

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 latency_s: float = 0.0, name: str = "link"):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative: {latency_s}")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.name = name
        self.bytes_carried = 0
        self._channel = CpuResource(sim, cores=1, name=name)

    def serialization_delay(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire."""
        return (nbytes * 8.0) / self.bandwidth_bps

    def transfer(self, nbytes: int):
        """Process generator: complete when ``nbytes`` have been delivered.

        Transfers share the link in FIFO order (store-and-forward), which
        models a congested southbound channel without per-packet detail.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        yield self._channel.run(self.serialization_delay(nbytes))
        self.bytes_carried += nbytes
        yield self.sim.timeout(self.latency_s)
