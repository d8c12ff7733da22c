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

The open-loop and short-flow drivers share one arrival chain
(``_DriverBase._offer``): each arrival is one ``Simulator.call_later``
entry whose callback counts the request, spawns its process, draws
the next exponential gap and schedules the next arrival. The driver's
own process is resumed a fixed number of times per run, not once per
request: it waits on one event, which the first arrival at or past
the end succeeds, and then joins the requests still in flight. Every
``sim.rng`` draw comes in the order a per-arrival timeout loop would
make it, so a seed replays the same schedule.

Each driver builds its one wrk-style request at construction and sends
that same frozen ``HttpRequest`` for every request it offers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.replica import require_at_least
from ..k8s import Pod
from ..mesh.base import ServiceMesh
from ..mesh.http import HttpRequest
from ..simcore import Event, Simulator, Summary

__all__ = ["LoadReport", "OpenLoopDriver", "ClosedLoopDriver",
           "ShortFlowDriver"]


def _require_count(owner, name: str, low: int) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``owner.name`` is an
    int (not a bool) ``>= low``."""
    value = getattr(owner, name)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{type(owner).__name__}.{name} must be an int "
                         f">= {low}, got {value!r}")


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
                 service: str):
        self.sim = sim
        self.mesh = mesh
        self.client_pod = client_pod
        self.service = service
        #: Small body, 1 KB response; shared by every offered request.
        self.request = HttpRequest(method="GET", path="/", body_bytes=128,
                                   response_bytes=1024)
        self.report = LoadReport()
        #: Set once arrivals end with requests still in flight; the last
        #: completion succeeds it (see :meth:`_join`).
        self._joined: Optional[Event] = None
        #: The arrival chain's horizon and the event its last arrival
        #: succeeds (see :meth:`_offer`).
        self._end = 0.0
        self._arrivals_ended: Optional[Event] = None

    def _one_request(self, connection):
        response = yield from self.mesh.request(connection, self.request)
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

    def _offer(self):
        """Offer Poisson arrivals at ``self.rps`` for ``self.duration_s``
        from now, wait for the last completion, and return the report.

        Arrivals run on the agenda as :meth:`_arrive` calls, so this
        generator resumes once when they end and once more if requests
        are still in flight then.
        """
        sim = self.sim
        start = sim.now
        self._end = start + self.duration_s
        self._arrivals_ended = sim.event()
        sim.call_later(sim.rng.expovariate(self.rps), self._arrive)
        yield self._arrivals_ended
        yield from self._join()
        self.report.duration_s = sim.now - start
        return self.report

    def _arrive(self, _arg) -> None:
        """One arrival: count it, spawn it, schedule the next one. The
        first arrival at or past the end spawns nothing and ends the
        chain."""
        sim = self.sim
        if sim.now >= self._end:
            self._arrivals_ended.succeed()
            return
        self.report.offered += 1
        self._spawn()
        sim.call_later(sim.rng.expovariate(self.rps), self._arrive)

    def _spawn(self) -> None:
        """Start the process of one offered request."""
        raise NotImplementedError


class OpenLoopDriver(_DriverBase):
    """Poisson arrivals at a fixed mean rate over a pool of persistent
    connections."""

    def __init__(self, sim: Simulator, mesh: ServiceMesh, client_pod: Pod,
                 service: str, rps: float, duration_s: float,
                 connections: int = 100):
        super().__init__(sim, mesh, client_pod, service)
        self.rps = rps
        self.duration_s = duration_s
        self.connections = connections
        require_at_least(self, "rps", 0, inclusive=False)
        require_at_least(self, "duration_s", 0, inclusive=False)
        _require_count(self, "connections", 1)
        self._pool: list = []
        self._index = 0

    def run(self):
        """Process generator: open connections, offer load, finish."""
        for _ in range(self.connections):
            connection = yield from self.mesh.open_connection(
                self.client_pod, self.service)
            self._pool.append(connection)
        return (yield from self._offer())

    def _spawn(self) -> None:
        """A request on the next pooled connection, round robin."""
        pool = self._pool
        connection = pool[self._index % len(pool)]
        self._index += 1
        self.sim.process(self._one_request(connection), name="req")


class ClosedLoopDriver(_DriverBase):
    """N connections, each sending the next request after the response.

    ``think_time_s`` throttles each connection (Fig 10 uses 1 request
    per second on one connection).
    """

    def __init__(self, sim: Simulator, mesh: ServiceMesh, client_pod: Pod,
                 service: str, connections: int = 1,
                 requests_per_connection: int = 100,
                 think_time_s: float = 0.0):
        super().__init__(sim, mesh, client_pod, service)
        self.connections = connections
        self.requests_per_connection = requests_per_connection
        self.think_time_s = think_time_s
        _require_count(self, "connections", 1)
        _require_count(self, "requests_per_connection", 0)
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
                 service: str, rps: float, duration_s: float):
        super().__init__(sim, mesh, client_pod, service)
        self.rps = rps
        self.duration_s = duration_s
        require_at_least(self, "rps", 0, inclusive=False)
        require_at_least(self, "duration_s", 0, inclusive=False)

    def run(self):
        """Process generator: offer flows, finish."""
        return (yield from self._offer())

    def _spawn(self) -> None:
        self.sim.process(self._flow(), name="flow")

    def _flow(self):
        opened_at = self.sim.now
        connection = yield from self.mesh.open_connection(
            self.client_pod, self.service)
        response = yield from self.mesh.request(connection, self.request)
        # Short-flow latency includes the handshake.
        self._record(response.status, self.sim.now - opened_at)
