"""Network substrate: addressing, packets, topology, ECMP, service IDs, DNS.

Provides the virtual-network world the meshes run in: multi-AZ
topologies with a calibrated latency model, VPCs with overlapping
address space, VXLAN encapsulation, stateless ECMP routing, the
VNI→service-ID mapping the vSwitch stamps, and AZ-aware DNS.
"""

from .addressing import Cidr, Vpc, int_to_ip, ip_to_int
from .dns import AzAwareResolver, DnsRecord, ResolutionError
from .ecmp import EcmpRouter
from .link import Link
from .packet import (
    FiveTuple,
    Packet,
    TCP,
    UDP,
    VXLAN_OVERHEAD_BYTES,
    VxlanHeader,
)
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
    "Packet",
    "Region",
    "ResolutionError",
    "ServiceIdMapper",
    "TCP",
    "Topology",
    "UDP",
    "VXLAN_OVERHEAD_BYTES",
    "Vpc",
    "VxlanHeader",
    "int_to_ip",
    "ip_to_int",
]
