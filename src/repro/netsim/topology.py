"""Regions, availability zones, nodes, and the latency model between them.

The paper's latency anchors (Appendix A): RTT within an AZ is well under
1 ms, cross-AZ around 1–2 ms, and cross-region communication expensive
enough that customers buy VPN bandwidth for it. All mesh paths are
priced with :class:`LatencyModel` so experiments share one set of
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["NetLocation", "LatencyModel", "Region", "AvailabilityZone",
           "HostNode", "Topology"]


@dataclass(frozen=True)
class NetLocation:
    """Where an endpoint lives, at the granularity latency cares about."""

    region: str
    az: str
    node: str

    def same_node(self, other: "NetLocation") -> bool:
        return self == other

    def same_az(self, other: "NetLocation") -> bool:
        return self.region == other.region and self.az == other.az

    def same_region(self, other: "NetLocation") -> bool:
        return self.region == other.region


@dataclass(frozen=True)
class LatencyModel:
    """One-way network latency by topological distance, in seconds."""

    intra_node: float = 50e-6
    intra_az: float = 250e-6
    cross_az: float = 1e-3
    cross_region: float = 30e-3

    def one_way(self, src: NetLocation, dst: NetLocation) -> float:
        if src.same_node(dst):
            return self.intra_node
        if src.same_az(dst):
            return self.intra_az
        if src.same_region(dst):
            return self.cross_az
        return self.cross_region

    def rtt(self, src: NetLocation, dst: NetLocation) -> float:
        return 2.0 * self.one_way(src, dst)


@dataclass
class HostNode:
    """A physical host (or hypervisor slot) inside an AZ."""

    name: str
    az: "AvailabilityZone"

    @property
    def location(self) -> NetLocation:
        return NetLocation(self.az.region.name, self.az.name, self.name)


@dataclass
class AvailabilityZone:
    """A failure domain inside a region."""

    name: str
    region: "Region"
    nodes: List[HostNode] = field(default_factory=list)

    def add_node(self, name: str) -> HostNode:
        node = HostNode(name, self)
        self.nodes.append(node)
        return node


@dataclass
class Region:
    """A cloud region: a set of AZs."""

    name: str
    azs: List[AvailabilityZone] = field(default_factory=list)

    def add_az(self, name: str) -> AvailabilityZone:
        az = AvailabilityZone(name, self)
        self.azs.append(az)
        return az


class Topology:
    """The world: regions, AZs, nodes, and the latency model among them."""

    def __init__(self, latency: Optional[LatencyModel] = None):
        self.latency = latency or LatencyModel()
        self.regions: Dict[str, Region] = {}

    def add_region(self, name: str) -> Region:
        if name in self.regions:
            raise ValueError(f"duplicate region {name!r}")
        region = Region(name)
        self.regions[name] = region
        return region

    def all_azs(self) -> List[AvailabilityZone]:
        return [az for region in self.regions.values() for az in region.azs]

    def all_nodes(self) -> List[HostNode]:
        return [node for az in self.all_azs() for node in az.nodes]

    @classmethod
    def single_az_testbed(cls, worker_nodes: int = 2) -> "Topology":
        """The paper's §5.1 testbed: one master + N workers in one AZ."""
        topo = cls()
        region = topo.add_region("region1")
        az = region.add_az("az1")
        az.add_node("master")
        for index in range(worker_nodes):
            az.add_node(f"worker{index + 1}")
        return topo

    @classmethod
    def multi_az_region(cls, azs: int = 3, nodes_per_az: int = 4,
                        region_name: str = "region1") -> "Topology":
        """A production-style region for gateway/cloud-infra experiments."""
        topo = cls()
        region = topo.add_region(region_name)
        for az_index in range(azs):
            az = region.add_az(f"az{az_index + 1}")
            for node_index in range(nodes_per_az):
                az.add_node(f"az{az_index + 1}-node{node_index + 1}")
        return topo
