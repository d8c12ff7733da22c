"""Network substrate: addressing, flows, topology, ECMP, service IDs, DNS.

Provides the virtual-network world the meshes run in: multi-AZ
topologies with a calibrated latency model, VPCs with overlapping
address space, flow five-tuples, stateless ECMP routing, the
VNI→service-ID mapping the vSwitch stamps, and AZ-aware DNS.
"""

from .addressing import Cidr, Vpc, int_to_ip, ip_to_int
from .dns import AzAwareResolver, DnsRecord, ResolutionError
from .ecmp import EcmpRouter
from .link import Link
from .packet import FiveTuple
from .topology import (
    AvailabilityZone,
    HostNode,
    LatencyModel,
    NetLocation,
    Region,
    Topology,
)
from .vswitch import ServiceIdMapper

__all__ = [
    "AvailabilityZone",
    "AzAwareResolver",
    "Cidr",
    "DnsRecord",
    "EcmpRouter",
    "FiveTuple",
    "HostNode",
    "LatencyModel",
    "Link",
    "NetLocation",
    "Region",
    "ResolutionError",
    "ServiceIdMapper",
    "Topology",
    "Vpc",
    "int_to_ip",
    "ip_to_int",
]
