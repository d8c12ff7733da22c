"""Tenants and tenant services at the multi-tenant gateway.

A *tenant service* is the gateway's unit of configuration, isolation,
scaling, and billing: a (tenant, VPC/VNI, service) triple with a
globally unique service ID — the ID the vSwitch stamps into inner
headers so overlapping VPC addresses never collide (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netsim import ServiceIdMapper

__all__ = ["Tenant", "TenantService", "TenantRegistry"]


@dataclass
class Tenant:
    """A paying customer of the mesh gateway."""

    name: str
    vni: int
    #: Whether the tenant purchased usage-based auto-scaling (§4.2
    #: service-level alerts apply only to these tenants).
    auto_scaling: bool = True
    #: Keyless tenants host their own key server (Appendix B).
    keyless: bool = False


@dataclass
class TenantService:
    """One service of one tenant, as the gateway sees it."""

    service_id: int
    tenant: Tenant
    name: str
    vpc_ip: str
    port: int = 80
    #: Relative CPU weight of one request (HTTPS requests cost about 3×
    #: an HTTP request, §6.3).
    https: bool = False
    #: Fraction of this service's sessions that are long-lasting —
    #: penalized when choosing migration candidates (§6.3).
    long_session_fraction: float = 0.1

    @property
    def qualified_name(self) -> str:
        return f"{self.tenant.name}/{self.name}"

    @property
    def request_weight(self) -> float:
        """Per-request resource weight (HTTPS ≈ 3× HTTP, §6.3)."""
        return 3.0 if self.https else 1.0


class TenantRegistry:
    """All tenants and services known to one gateway deployment."""

    def __init__(self, mapper: Optional[ServiceIdMapper] = None):
        self.mapper = mapper or ServiceIdMapper()
        self.tenants: Dict[str, Tenant] = {}
        self.services: Dict[int, TenantService] = {}
        self._next_vni = 100

    def add_tenant(self, name: str, auto_scaling: bool = True,
                   keyless: bool = False) -> Tenant:
        if name in self.tenants:
            raise ValueError(f"duplicate tenant {name!r}")
        tenant = Tenant(name=name, vni=self._next_vni,
                        auto_scaling=auto_scaling, keyless=keyless)
        self._next_vni += 1
        self.tenants[name] = tenant
        return tenant

    def add_service(self, tenant: Tenant, name: str, vpc_ip: str,
                    port: int = 80, https: bool = False,
                    long_session_fraction: float = 0.1) -> TenantService:
        service_id = self.mapper.register(
            tenant.vni, vpc_ip, service_name=f"{tenant.name}/{name}")
        if service_id in self.services:
            raise ValueError(
                f"service {tenant.name}/{name} already registered")
        service = TenantService(
            service_id=service_id, tenant=tenant, name=name, vpc_ip=vpc_ip,
            port=port, https=https,
            long_session_fraction=long_session_fraction)
        self.services[service_id] = service
        return service

    def service_by_name(self, tenant: str, name: str) -> TenantService:
        for service in self.services.values():
            if service.tenant.name == tenant and service.name == name:
                return service
        raise KeyError(f"no service {tenant}/{name}")

    def services_of(self, tenant: str) -> List[TenantService]:
        return [s for s in self.services.values()
                if s.tenant.name == tenant]

    def __len__(self) -> int:
        return len(self.services)
