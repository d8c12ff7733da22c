"""Global service IDs for the vSwitch under gateway VMs.

From §4.2: the mesh gateway runs in VMs above the vSwitch, and the
vSwitch removes the outer VXLAN header before packets reach the VM — so
the VNI (the only tenant discriminator, given overlapping VPC address
spaces) would be lost. Canal's fix: before stripping, map the VNI (plus
inner destination) to a *globally unique service ID*. This module holds
that mapping.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["ServiceIdMapper"]


class ServiceIdMapper:
    """Registry of (VNI, inner service address) → global service ID."""

    def __init__(self):
        self._table: Dict[Tuple[int, str], int] = {}
        self._next_id = 1
        self._names: Dict[int, str] = {}

    def register(self, vni: int, inner_ip: str,
                 service_name: str = "") -> int:
        """Assign (or return the existing) global ID for a tenant service."""
        key = (vni, inner_ip)
        if key not in self._table:
            self._table[key] = self._next_id
            self._names[self._table[key]] = service_name or f"svc-{self._next_id}"
            self._next_id += 1
        return self._table[key]

    def lookup(self, vni: int, inner_ip: str) -> Optional[int]:
        return self._table.get((vni, inner_ip))

    def name_of(self, service_id: int) -> str:
        return self._names.get(service_id, f"svc-{service_id}")

    def __len__(self) -> int:
        return len(self._table)
