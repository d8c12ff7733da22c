"""Load generators: wrk-style and Netperf-style drivers (§5.1).

Two driver shapes cover every testbed experiment:

* :class:`OpenLoopDriver` — requests arrive at a target rate regardless
  of completions (how wrk's fixed-RPS mode stresses a saturating
  system; used for the latency-vs-RPS sweeps, Fig 11);
* :class:`ClosedLoopDriver` — N connections each issue the next request
  after the previous response (Fig 10's 1-thread/1-connection probe).

Both record latency and status into summaries; ``ShortFlowDriver``
opens a fresh connection per request for the HTTPS handshake
experiments (Figs 25, 27, 28).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.replica import require_at_least
from ..k8s import Pod
from ..mesh.base import ServiceMesh
from ..mesh.http import HttpRequest
from ..simcore import Event, Simulator, Summary

__all__ = ["LoadReport", "OpenLoopDriver", "ClosedLoopDriver",
           "ShortFlowDriver", "default_request_factory"]


def default_request_factory() -> HttpRequest:
    """The testbed's wrk-style request: small body, 1 KB response."""
    return HttpRequest(method="GET", path="/", body_bytes=128,
                       response_bytes=1024)


@dataclass
class LoadReport:
    """Aggregated outcome of one driver run."""

    latency: Summary = field(default_factory=lambda: Summary("latency"))
    statuses: List[int] = field(default_factory=list)
    offered: int = 0
    completed: int = 0
    duration_s: float = 0.0

    @property
    def ok_count(self) -> int:
        return sum(1 for status in self.statuses if 200 <= status < 400)

    @property
    def error_count(self) -> int:
        return len(self.statuses) - self.ok_count

    @property
    def throughput_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s


class _DriverBase:
    def __init__(self, sim: Simulator, mesh: ServiceMesh, client_pod: Pod,
                 service: str,
                 request_factory: Callable[[], HttpRequest] = None):
        self.sim = sim
        self.mesh = mesh
        self.client_pod = client_pod
        self.service = service
        self.request_factory = request_factory or default_request_factory
        self.report = LoadReport()
        #: Set once arrivals end with requests still in flight; the last
        #: completion succeeds it (see :meth:`_join`).
        self._joined: Optional[Event] = None

    def _one_request(self, connection):
        request = self.request_factory()
        response = yield from self.mesh.request(connection, request)
        self._record(response.status, response.latency_s)
        return response

    def _record(self, status: int, latency_s: float) -> None:
        report = self.report
        report.completed += 1
        report.statuses.append(status)
        report.latency.add(latency_s)
        if self._joined is not None and report.completed == report.offered:
            self._joined.succeed()

    def _join(self):
        """Wait, once arrivals have ended, until every offered request
        completes: a count, not a join over every request's process."""
        report = self.report
        if report.completed < report.offered:
            self._joined = self.sim.event()
            yield self._joined


class OpenLoopDriver(_DriverBase):
    """Fixed-rate arrivals over a pool of persistent connections."""

    def __init__(self, sim: Simulator, mesh: ServiceMesh, client_pod: Pod,
                 service: str, rps: float, duration_s: float,
                 connections: int = 100, poisson: bool = True,
                 request_factory: Callable[[], HttpRequest] = None):
        super().__init__(sim, mesh, client_pod, service, request_factory)
        self.rps = rps
        self.duration_s = duration_s
        self.connections = connections
        self.poisson = poisson
        require_at_least(self, "rps", 0, inclusive=False)
        require_at_least(self, "duration_s", 0, inclusive=False)
        require_at_least(self, "connections", 1)

    def run(self):
        """Process generator: open connections, offer load, finish."""
        pool = []
        for _ in range(self.connections):
            connection = yield from self.mesh.open_connection(
                self.client_pod, self.service)
            pool.append(connection)
        start = self.sim.now
        end = start + self.duration_s
        index = 0
        while self.sim.now < end:
            if self.poisson:
                gap = self.sim.rng.expovariate(self.rps)
            else:
                gap = 1.0 / self.rps
            yield self.sim.timeout(gap)
            if self.sim.now >= end:
                break
            connection = pool[index % len(pool)]
            index += 1
            self.report.offered += 1
            self.sim.process(self._one_request(connection), name="req")
        yield from self._join()
        self.report.duration_s = self.sim.now - start
        return self.report


class ClosedLoopDriver(_DriverBase):
    """N connections, each sending the next request after the response.

    ``think_time_s`` throttles each connection (Fig 10 uses 1 request
    per second on one connection).
    """

    def __init__(self, sim: Simulator, mesh: ServiceMesh, client_pod: Pod,
                 service: str, connections: int = 1,
                 requests_per_connection: int = 100,
                 think_time_s: float = 0.0,
                 request_factory: Callable[[], HttpRequest] = None):
        super().__init__(sim, mesh, client_pod, service, request_factory)
        self.connections = connections
        self.requests_per_connection = requests_per_connection
        self.think_time_s = think_time_s
        require_at_least(self, "connections", 1)
        require_at_least(self, "requests_per_connection", 0)
        require_at_least(self, "think_time_s", 0)

    def run(self):
        start = self.sim.now
        workers = [self.sim.process(self._worker(), name=f"conn-{i}")
                   for i in range(self.connections)]
        yield self.sim.all_of(workers)
        self.report.duration_s = self.sim.now - start
        return self.report

    def _worker(self):
        connection = yield from self.mesh.open_connection(
            self.client_pod, self.service)
        for _ in range(self.requests_per_connection):
            self.report.offered += 1
            yield from self._one_request(connection)
            if self.think_time_s > 0:
                yield self.sim.timeout(self.think_time_s)


class ShortFlowDriver(_DriverBase):
    """A new connection (and handshake) per request — HTTPS short flows."""

    def __init__(self, sim: Simulator, mesh: ServiceMesh, client_pod: Pod,
                 service: str, rps: float, duration_s: float,
                 request_factory: Callable[[], HttpRequest] = None):
        super().__init__(sim, mesh, client_pod, service, request_factory)
        self.rps = rps
        self.duration_s = duration_s
        require_at_least(self, "rps", 0, inclusive=False)
        require_at_least(self, "duration_s", 0, inclusive=False)

    def run(self):
        start = self.sim.now
        end = start + self.duration_s
        while self.sim.now < end:
            yield self.sim.timeout(self.sim.rng.expovariate(self.rps))
            if self.sim.now >= end:
                break
            self.report.offered += 1
            self.sim.process(self._flow(), name="flow")
        yield from self._join()
        self.report.duration_s = self.sim.now - start
        return self.report

    def _flow(self):
        opened_at = self.sim.now
        connection = yield from self.mesh.open_connection(
            self.client_pod, self.service)
        request = self.request_factory()
        response = yield from self.mesh.request(connection, request)
        # Short-flow latency includes the handshake.
        self._record(response.status, self.sim.now - opened_at)
