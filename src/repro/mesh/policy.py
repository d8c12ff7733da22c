"""Zero-trust policy objects: authorization rules and rate limits.

Authorization is the one zero-trust feature that *can* move to the
remote gateway (§4.1.1): its inputs travel in the packets and its logic
is a table lookup. Encryption/authentication cannot (they need local
secrets), which is why they stay in the on-node proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .http import HttpRequest

__all__ = ["AuthorizationPolicy", "AuthorizationTable", "RateLimiter"]


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


class RateLimiter:
    """Token-bucket rate limiting (the gateway's early-drop throttle).

    The paper drops over-quota packets "when they reach the redirector,
    rather than waiting until they reach the application layer" (§6.2);
    callers place this object at the appropriate path stage.
    """

    def __init__(self, rate_per_s: float, burst: Optional[float] = None):
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s
        self.burst = burst if burst is not None else rate_per_s
        self._tokens = self.burst
        self._last_refill = 0.0
        self.admitted = 0
        self.dropped = 0

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Admit or drop one request arriving at simulated time ``now``."""
        if now < self._last_refill:
            raise ValueError("time went backwards in rate limiter")
        self._tokens = min(
            self.burst, self._tokens + (now - self._last_refill) * self.rate_per_s)
        self._last_refill = now
        if self._tokens >= cost:
            self._tokens -= cost
            self.admitted += 1
            return True
        self.dropped += 1
        return False

    def set_rate(self, rate_per_s: float) -> None:
        """Adjust the limit (gradual throttle relaxation, §6.2 Case #3)."""
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s
        self.burst = max(self.burst, rate_per_s)
