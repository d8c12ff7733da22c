"""Zero-trust policy objects: authorization rules.

Authorization is the one zero-trust feature that *can* move to the
remote gateway (§4.1.1): its inputs travel in the packets and its logic
is a table lookup. Encryption/authentication cannot (they need local
secrets), which is why they stay in the on-node proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .http import HttpRequest

__all__ = ["AuthorizationPolicy", "AuthorizationTable"]


@dataclass(frozen=True)
class AuthorizationPolicy:
    """ALLOW rule: which identities may call a service, with which methods."""

    service: str
    allowed_identities: Tuple[str, ...]
    allowed_methods: Tuple[str, ...] = ("GET", "POST", "PUT", "DELETE")
    name: str = ""

    def permits(self, request: HttpRequest) -> bool:
        if request.source_identity not in self.allowed_identities:
            return False
        return request.method in self.allowed_methods


class AuthorizationTable:
    """All L7 security rules for a mesh; default-deny once a service has rules."""

    def __init__(self):
        self._policies: dict = {}

    def add(self, policy: AuthorizationPolicy) -> None:
        self._policies.setdefault(policy.service, []).append(policy)

    def check(self, service: str, request: HttpRequest) -> bool:
        """True if allowed. Services without rules are open (K8s default)."""
        policies = self._policies.get(service)
        if not policies:
            return True
        return any(policy.permits(request) for policy in policies)

    def config_size_bytes(self) -> int:
        size = 0
        for policies in self._policies.values():
            for policy in policies:
                size += 200 + 40 * len(policy.allowed_identities)
        return size
