"""HTTP request/response model and L7 routing primitives.

Requests are metadata records: the fields L7 policy dispatches on (§2.2
— "URLs, HTTP headers, and message content") plus sizes for crypto and
bandwidth pricing. Routing follows the Istio VirtualService shape:
ordered rules with path/header/method matches and weighted destination
subsets (the mechanism behind canary release and A/B testing, §4.1.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "HttpMatch",
    "WeightedDestination",
    "RouteRule",
    "RouteTable",
    "RouteError",
]


@dataclass(frozen=True)
class HttpRequest:
    """One L7 request as seen by a mesh proxy; frozen, because a load
    driver sends one object for every request it offers."""

    method: str = "GET"
    path: str = "/"
    headers: Dict[str, str] = field(default_factory=dict)
    body_bytes: int = 128
    response_bytes: int = 1024
    https: bool = True
    source_identity: str = ""

    def __post_init__(self) -> None:
        for name in ("body_bytes", "response_bytes"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:  # no bool, no float
                raise ValueError(f"HttpRequest.{name} must be an int "
                                 f">= 0, got {value!r}")

    @property
    def total_bytes(self) -> int:
        return self.body_bytes + self.response_bytes


@dataclass
class HttpResponse:
    """Outcome of one request through a mesh path."""

    status: int = 200
    latency_s: float = 0.0
    served_by: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 400


class RouteError(LookupError):
    """No rule matched the request."""


@dataclass(frozen=True)
class HttpMatch:
    """Match condition of a route rule (AND of all present clauses)."""

    path_prefix: str = "/"
    headers: Tuple[Tuple[str, str], ...] = ()
    method: Optional[str] = None

    def matches(self, request: HttpRequest) -> bool:
        if not request.path.startswith(self.path_prefix):
            return False
        if self.method is not None and request.method != self.method:
            return False
        for key, value in self.headers:
            if request.headers.get(key) != value:
                return False
        return True


@dataclass(frozen=True)
class WeightedDestination:
    """A destination subset with a traffic-splitting weight."""

    subset: str
    weight: int = 100

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"negative weight {self.weight}")


@dataclass(frozen=True)
class RouteRule:
    """match → weighted destinations (canary/AB splitting)."""

    match: HttpMatch
    destinations: Tuple[WeightedDestination, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.destinations:
            raise ValueError("route rule needs at least one destination")
        if sum(d.weight for d in self.destinations) <= 0:
            raise ValueError("route rule weights sum to zero")

    def pick_destination(self, rng: random.Random) -> str:
        total = sum(d.weight for d in self.destinations)
        roll = rng.uniform(0, total)
        cumulative = 0.0
        for destination in self.destinations:
            cumulative += destination.weight
            if roll <= cumulative:
                return destination.subset
        return self.destinations[-1].subset


class RouteTable:
    """Ordered L7 route rules for one service (first match wins)."""

    def __init__(self, service: str, rules: Sequence[RouteRule] = ()):
        self.service = service
        self.rules: List[RouteRule] = list(rules)

    def add_rule(self, rule: RouteRule) -> None:
        self.rules.append(rule)

    def route(self, request: HttpRequest, rng: random.Random) -> str:
        """Resolve a request to a destination subset name."""
        for rule in self.rules:
            if rule.match.matches(request):
                return rule.pick_destination(rng)
        raise RouteError(
            f"no route in {self.service!r} matches {request.method} "
            f"{request.path}")

    def config_size_bytes(self) -> int:
        """Wire size of this table when pushed southbound.

        ~300 bytes per rule plus ~60 per header clause, the ballpark of
        serialized xDS RouteConfiguration entries.
        """
        size = 120  # envelope
        for rule in self.rules:
            size += 300 + 60 * len(rule.match.headers)
            size += 80 * len(rule.destinations)
        return size
