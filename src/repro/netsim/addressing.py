"""Virtual-network addressing: VPCs with (deliberately) overlapping space.

A core premise of the paper's multi-tenant gateway (§4.2) is that tenant
VPCs may use overlapping private address ranges, so inner IP headers
alone cannot identify a tenant's service — a VXLAN network identifier
(VNI) is required. This module provides just enough IPv4 machinery to
exercise that: CIDR blocks, per-VPC sequential allocators, and VPCs that
happily hand out the same 10.x addresses to different tenants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

__all__ = ["ip_to_int", "int_to_ip", "Cidr", "Vpc"]


def ip_to_int(address: str) -> int:
    """Dotted-quad string to 32-bit integer."""
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """32-bit integer to dotted-quad string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"not a 32-bit value: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Cidr:
    """An IPv4 CIDR block, e.g. ``10.0.0.0/16``."""

    network: str
    prefix: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix <= 32:
            raise ValueError(f"invalid prefix length {self.prefix}")
        base = ip_to_int(self.network)
        if base & (self.hostmask()):
            raise ValueError(
                f"{self.network}/{self.prefix} has host bits set")

    @classmethod
    def parse(cls, text: str) -> "Cidr":
        network, _, prefix = text.partition("/")
        if not prefix:
            raise ValueError(f"missing prefix length in {text!r}")
        return cls(network, int(prefix))

    def hostmask(self) -> int:
        return (1 << (32 - self.prefix)) - 1

    def netmask(self) -> int:
        return 0xFFFFFFFF ^ self.hostmask()

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix)

    def contains(self, address: str) -> bool:
        return (ip_to_int(address) & self.netmask()) == ip_to_int(self.network)

    def hosts(self) -> Iterator[str]:
        """Usable host addresses (network and broadcast excluded)."""
        base = ip_to_int(self.network)
        for offset in range(1, self.size - 1):
            yield int_to_ip(base + offset)

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix}"


@dataclass
class Vpc:
    """A tenant's virtual private cloud: an isolated address space.

    Two VPCs may be built on the same CIDR — that overlap is exactly what
    the gateway's VNI→service-ID mapping must disambiguate.
    """

    tenant: str
    name: str
    cidr: Cidr
    vni: int
    _next_offset: int = field(default=1, repr=False)
    _allocated: Dict[str, str] = field(default_factory=dict, repr=False)

    def allocate(self, owner: str) -> str:
        """Hand out the next free address, tagged with its owner."""
        if self._next_offset >= self.cidr.size - 1:
            raise RuntimeError(f"VPC {self.name} exhausted {self.cidr}")
        address = int_to_ip(ip_to_int(self.cidr.network) + self._next_offset)
        self._next_offset += 1
        self._allocated[address] = owner
        return address

    def owner_of(self, address: str) -> Optional[str]:
        """Who an address was allocated to, or None if unallocated."""
        return self._allocated.get(address)