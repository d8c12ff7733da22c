"""Fluid-flow fleet model: the mesh as aggregate session flows.

Where the per-session tier walks one object per replica and one event
per request, :class:`FleetModel` keeps a *single float per (service,
shard-slot)* — the expected number of concurrent sessions routed to
that backend — and advances all of them with a fixed-step flow update
scheduled on the ordinary :class:`~repro.simcore.Simulator` agenda via
``call_later``. Session populations follow the M/M/inf fluid limit,
integrated **exactly** over each step (no Euler error)::

    n(t + dt) = n(t) * e^(-dt/theta) + lambda_slot * theta * (1 - e^(-dt/theta))

with ``theta`` the mean session lifetime and ``lambda_slot`` the
per-slot arrival rate over the step. Departures are computed as the
residual ``admitted + n(t) - n(t+dt)``, so the conservation law

    admitted == active + departed + disrupted

holds *by construction* to float round-off — it is asserted after
every fault step (:meth:`check_invariants`) and compared against the
discrete per-session reference in ``fleet/validate.py``.

Everything observable — CPU water levels, the scaling trigger, the
HTTPS request weight, latency proxies — derives from the same
``GatewayConfig``/``ReplicaConfig`` constants as the testbed tier (see
``fleet/config.py``), and every source of randomness is the owning
simulator's seeded RNG, so a fleet run is a pure function of
(config, demand, plan, seed).
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, List, Optional

from ..faults.audit import InvariantViolation
from ..obs.runtime import get_telemetry
from ..simcore import Simulator, TimeSeries
from .config import FleetConfig, FleetDemand
from .queueing import sojourn_mean_s, sojourn_p99_s, weighted_percentile
from .topology import FleetTopology

__all__ = ["FleetCounters", "FleetMetrics", "FleetModel"]

#: Water level reported for a backend with demand but zero capacity.
_WATER_SATURATED = 10.0


class FleetCounters:
    """Session-conservation ledger (floats; the DES tier uses ints)."""

    def __init__(self):
        self.attempted = 0.0    # admitted + rejected
        self.admitted = 0.0     # == active + departed + disrupted
        self.rejected = 0.0     # no healthy backend in the shard
        self.departed = 0.0     # natural session completion
        self.disrupted = 0.0    # dropped by a fault
        self.config_pushes = 0.0  # control-plane fan-out (config recipients)


class FleetMetrics:
    """Sampled trajectories of one region (the exhibit raw material)."""

    def __init__(self):
        self.availability = TimeSeries("availability")
        self.active_sessions = TimeSeries("active_sessions")
        self.offered_rps = TimeSeries("offered_rps")
        self.mean_water = TimeSeries("mean_water")
        self.max_water = TimeSeries("max_water")
        self.latency_mean_ms = TimeSeries("latency_mean_ms")
        self.latency_p99_ms = TimeSeries("latency_p99_ms")
        self.provisioned_replicas = TimeSeries("provisioned_replicas")

    def all_series(self) -> List[TimeSeries]:
        return [self.availability, self.active_sessions, self.offered_rps,
                self.mean_water, self.max_water, self.latency_mean_ms,
                self.latency_p99_ms, self.provisioned_replicas]


class FleetModel:
    """One region's mesh as session flows over a shuffle-sharded fleet.

    The crash/recover/QoD surface (``crash_backend`` ...) is the common
    interface :class:`~repro.fleet.faults.FleetFaultEngine` drives; the
    per-session reference model subclasses this and overrides only the
    arrival/departure mechanics, so faults and aggregation stay
    literally shared between the tiers being compared.
    """

    def __init__(self, sim: Simulator, config: FleetConfig,
                 demand: FleetDemand, region: str = "region-1",
                 warm_start: bool = True):
        self.sim = sim
        self.config = config
        self.demand = demand
        self.region = region
        self.warm_start = warm_start
        self.topology = FleetTopology(config, sim.rng)
        n_backends = self.topology.n_backends
        #: Expected concurrent sessions per (service, shard slot).
        self.slot_sessions: List[array] = [
            array("d", [0.0] * len(shard)) for shard in self.topology.shards]
        #: Reverse index: backend -> [(service, slot), ...].
        self._services_on: List[List] = [[] for _ in range(n_backends)]
        for service, shard in enumerate(self.topology.shards):
            for slot, backend in enumerate(shard):
                self._services_on[backend].append((service, slot))
        #: Query-of-death multiplier on a service's request weight.
        self.qod_factor = [1.0] * config.services
        #: Global capacity multiplier (rolling upgrades shrink it).
        self.capacity_factor = 1.0
        #: Optional demand modulation hook ``fn(service, t) -> factor``.
        self.demand_scale: Optional[Callable[[int, float], float]] = None
        self._weights = [config.service_weight(s)
                         for s in range(config.services)]
        self.counters = FleetCounters()
        self.metrics = FleetMetrics()
        self.scaler = None          # a FleetScaler attaches itself
        self.backend_water = [0.0] * n_backends
        self.backend_sessions = [0.0] * n_backends
        #: Per-backend arrival weight, ``max(floor, 1 - water)``; refreshed
        #: with the water levels in :meth:`_aggregate`.
        self._headroom = [1.0] * n_backends
        #: Healthy shard slots per service, ``None`` where a rebuild is
        #: due. Only the fault methods change backend health, and each
        #: drops the entries of the services it touches;
        #: ``extend_service`` appends to a cached entry instead.
        self._healthy_index: List[Optional[List[int]]] = \
            [None] * config.services
        #: Effective mean session lifetime; kept as an attribute (not
        #: read from demand each step) so the validation harness can
        #: mis-parameterize the fluid tier alone to prove its gate trips.
        self._theta = demand.session_duration_s
        self._decay = math.exp(-config.dt_s / self._theta)
        self._tick_index = 0
        self._horizon_s = 0.0
        #: Availability accumulated between metric samples.
        self._window_attempted = 0.0
        self._window_admitted = 0.0

    # -- lifecycle ---------------------------------------------------------
    def start(self, horizon_s: float) -> None:
        """Schedule flow updates up to ``horizon_s`` on the agenda."""
        if horizon_s < self.config.dt_s:
            raise ValueError(
                f"horizon {horizon_s}s is shorter than one flow step "
                f"({self.config.dt_s}s)")
        self._horizon_s = horizon_s
        if self.warm_start:
            self._seed_equilibrium()
        self._aggregate()
        self._sample(self.sim.now)
        self.sim.call_later(self.config.dt_s, self._tick, None)

    def _seed_equilibrium(self) -> None:
        """Start at the demand's equilibrium instead of an empty fleet."""
        target = self.demand.target_sessions(self.sim.now)
        for service, sessions in enumerate(self.slot_sessions):
            scaled = target
            if self.demand_scale is not None:
                scaled = target * self.demand_scale(service, self.sim.now)
            healthy = self._healthy_slots(service)
            if not healthy:
                continue
            share = scaled / len(healthy)
            for slot in healthy:
                sessions[slot] = share
            self.counters.attempted += scaled
            self.counters.admitted += scaled

    def _healthy_slots(self, service: int) -> List[int]:
        """The service's healthy slots, in slot order, from the index.

        The returned list is shared with the index: callers must not
        mutate it (the index replaces entries, it never edits them).
        """
        healthy = self._healthy_index[service]
        if healthy is None:
            topology = self.topology
            up = topology.backend_up
            replicas = topology.healthy_replicas
            healthy = [slot for slot, b in enumerate(topology.shards[service])
                       if up[b] and replicas[b] > 0]
            self._healthy_index[service] = healthy
        return healthy

    def _drop_health_of(self, backend: int) -> None:
        """Forget the index entries of every service on ``backend``."""
        index = self._healthy_index
        for service, _slot in self._services_on[backend]:
            index[service] = None

    #: Floor on a slot's arrival share so a saturated backend still
    #: receives a trickle (the LB never blacklists a healthy backend).
    _MIN_HEADROOM = 0.02

    def _slot_weights(self, service: int,
                      healthy: List[int]) -> List[float]:
        """Arrival split across healthy slots: the fluid analogue of
        DNS/LB weight shifts. New sessions land proportionally to each
        backend's CPU headroom (1 - water, floored), which is the
        mean-field limit of the gateway's least-loaded routing — a hot
        backend's share shrinks, so load drains through session
        turnover exactly like an LB weight shift at the testbed tier.
        Water is the previous flow step's aggregate, mirroring the LB's
        one-monitor-interval convergence lag."""
        headroom = self._headroom
        shard = self.topology.shards[service]
        return [headroom[shard[slot]] for slot in healthy]

    # -- the flow step -----------------------------------------------------
    def _tick(self, _arg) -> None:
        now = self.sim.now
        dt = self.config.dt_s
        self._advance_flows(now - dt, dt)
        self._aggregate()
        self._tick_index += 1
        if self._tick_index % self.config.sample_every == 0:
            self._sample(now)
        if self.scaler is not None:
            self.scaler.on_tick()
        if now + dt <= self._horizon_s + 1e-9:
            self.sim.call_later(dt, self._tick, None)

    def _advance_flows(self, t0: float, dt: float) -> None:
        # One pass per service decays each slot, adds its inflow and
        # totals the populations before and after. It performs the same
        # float operations in the same order as decaying every slot,
        # then splitting the inflow, then totalling, so its results are
        # bit-identical to that sequence's.
        decay = self._decay
        inflow_unit = self._theta * (1.0 - decay)
        base_rate = self.demand.arrival_rate(t0)
        scale_fn = self.demand_scale
        healthy_slots = self._healthy_slots
        slot_weights = self._slot_weights
        counters = self.counters
        attempted = counters.attempted
        admitted = counters.admitted
        rejected = counters.rejected
        departed = counters.departed
        window_attempted = self._window_attempted
        window_admitted = self._window_admitted
        for service, sessions in enumerate(self.slot_sessions):
            rate = base_rate
            if scale_fn is not None:
                rate = base_rate * scale_fn(service, t0)
            offered = rate * dt
            attempted += offered
            window_attempted += offered
            healthy = healthy_slots(service)
            weights = slot_weights(service, healthy)
            share = rate * inflow_unit / sum(weights) if weights else 0.0
            if len(weights) < len(sessions):
                # Align weights to slots; a down slot (None) gets no inflow.
                aligned = [None] * len(sessions)
                for slot, weight in zip(healthy, weights):
                    aligned[slot] = weight
                weights = aligned
            before = 0.0
            after = 0.0
            for slot, weight in enumerate(weights):
                n = sessions[slot]
                before += n
                n *= decay
                if weight is not None:
                    n += share * weight
                sessions[slot] = n
                after += n
            if healthy:
                admitted += offered
                window_admitted += offered
                departed += before + offered - after
            else:
                rejected += offered
                departed += before - after
        counters.attempted = attempted
        counters.admitted = admitted
        counters.rejected = rejected
        counters.departed = departed
        self._window_attempted = window_attempted
        self._window_admitted = window_admitted

    def _aggregate(self) -> None:
        """Fold slot populations into per-backend water levels."""
        config = self.config
        topology = self.topology
        water = self.backend_water
        loads = self.backend_sessions
        zeros = [0.0] * len(water)
        water[:] = zeros
        loads[:] = zeros
        cost = config.request_cost_s * self.demand.session_rps
        for sessions, shard, base, qod in zip(
                self.slot_sessions, topology.shards, self._weights,
                self.qod_factor):
            weight = base * qod
            for n, backend in zip(sessions, shard):
                if n <= 0.0:
                    continue
                loads[backend] += n
                water[backend] += n * weight * cost
        cores = config.cores_per_replica * self.capacity_factor
        headroom = self._headroom
        floor = self._MIN_HEADROOM
        for b, (replicas, up) in enumerate(
                zip(topology.healthy_replicas, topology.backend_up)):
            level = water[b]
            capacity = replicas * cores if up else 0.0
            if capacity > 0.0:
                level /= capacity
                water[b] = level
            elif level > 0.0:
                level = water[b] = _WATER_SATURATED
            spare = 1.0 - level
            headroom[b] = spare if spare > floor else floor

    # -- sampling ----------------------------------------------------------
    def _sample(self, now: float) -> None:
        metrics = self.metrics
        if self._window_attempted > 0.0:
            availability = self._window_admitted / self._window_attempted
        else:
            availability = 1.0
        self._window_attempted = 0.0
        self._window_admitted = 0.0
        metrics.availability.record(now, availability)
        active = self.active_sessions()
        metrics.active_sessions.record(now, active)
        metrics.offered_rps.record(now, active * self.demand.session_rps)
        waters = [w for b, w in enumerate(self.backend_water)
                  if self.topology.backend_up[b]]
        metrics.mean_water.record(
            now, sum(waters) / len(waters) if waters else 0.0)
        metrics.max_water.record(now, max(waters, default=0.0))
        mean_ms, p99_ms = self._latency_proxy()
        metrics.latency_mean_ms.record(now, mean_ms)
        metrics.latency_p99_ms.record(now, p99_ms)
        metrics.provisioned_replicas.record(
            now, float(self.topology.replicas_provisioned()))

    def _latency_proxy(self):
        """Session-weighted mean and p99 sojourn across backends, ms."""
        config = self.config
        service_s = config.request_cost_s
        cores = config.cores_per_replica
        replicas = self.topology.healthy_replicas
        total_weight = 0.0
        mean_acc = 0.0
        p99s: List[float] = []
        weights: List[float] = []
        for b, sessions in enumerate(self.backend_sessions):
            if sessions <= 1e-9:
                continue
            c = replicas[b] * cores
            if c < 1:
                continue
            rho = self.backend_water[b]
            mean_acc += sessions * sojourn_mean_s(rho, c, service_s)
            total_weight += sessions
            p99s.append(sojourn_p99_s(rho, c, service_s))
            weights.append(sessions)
        if total_weight <= 0.0:
            return (service_s * 1e3, service_s * 1e3)
        mean_s = mean_acc / total_weight
        p99_s = weighted_percentile(p99s, weights, 99.0)
        return (mean_s * 1e3, p99_s * 1e3)

    # -- fault interface (shared with the per-session reference) -----------
    # Only these methods change backend health; each one drops the
    # health-index entries of the services on the backends it flips.
    def crash_backend(self, backend: int) -> float:
        """Take a backend down, dropping its sessions; returns dropped."""
        if not self.topology.backend_up[backend]:
            return 0.0
        dropped = self._take_down(backend)
        self._aggregate()
        return dropped

    def recover_backend(self, backend: int) -> None:
        self._bring_up(backend)
        self._aggregate()

    def crash_az(self, az: int) -> float:
        """Take every backend of an AZ down, then re-aggregate once."""
        dropped = 0.0
        flipped = False
        for backend in self.topology.backends_in_az(az):
            if self.topology.backend_up[backend]:
                dropped += self._take_down(backend)
                flipped = True
        if flipped:
            self._aggregate()
        return dropped

    def recover_az(self, az: int) -> None:
        for backend in self.topology.backends_in_az(az):
            self._bring_up(backend)
        self._aggregate()

    def _take_down(self, backend: int) -> float:
        self.topology.backend_up[backend] = 0
        self._drop_health_of(backend)
        return self._drop_backend_sessions(backend)

    def _bring_up(self, backend: int) -> None:
        topology = self.topology
        topology.backend_up[backend] = 1
        topology.healthy_replicas[backend] = topology.total_replicas[backend]
        self._drop_health_of(backend)

    def crash_replica(self, backend: int) -> float:
        """Kill one replica; a backend at zero replicas drops sessions."""
        topology = self.topology
        if topology.healthy_replicas[backend] <= 0:
            return 0.0
        topology.healthy_replicas[backend] -= 1
        dropped = 0.0
        if topology.healthy_replicas[backend] == 0:
            self._drop_health_of(backend)
            dropped = self._drop_backend_sessions(backend)
        self._aggregate()
        return dropped

    def recover_replica(self, backend: int) -> None:
        topology = self.topology
        if topology.healthy_replicas[backend] < topology.total_replicas[backend]:
            topology.healthy_replicas[backend] += 1
            self._drop_health_of(backend)
        self._aggregate()

    def set_qod(self, service: int, factor: float) -> None:
        """Query-of-death: multiply the service's request weight."""
        if factor <= 0:
            raise ValueError(f"qod factor must be > 0, got {factor}")
        self.qod_factor[service] = factor
        self._aggregate()

    def clear_qod(self, service: int) -> None:
        self.qod_factor[service] = 1.0
        self._aggregate()

    def _drop_backend_sessions(self, backend: int) -> float:
        dropped = 0.0
        for service, slot in self._services_on[backend]:
            dropped += self._clear_slot(service, slot)
        self.counters.disrupted += dropped
        return dropped

    def _clear_slot(self, service: int, slot: int) -> float:
        sessions = self.slot_sessions[service]
        dropped = sessions[slot]
        sessions[slot] = 0.0
        return dropped

    # -- growth (the scaler extends shards through these) ------------------
    def on_backend_added(self, backend: int) -> None:
        self.backend_water.append(0.0)
        self.backend_sessions.append(0.0)
        self._headroom.append(1.0)
        self._services_on.append([])

    def extend_service(self, service: int, backend: int) -> None:
        """Add a shard slot on ``backend`` and count the config fan-out."""
        topology = self.topology
        topology.extend_shard(service, backend)
        self._append_slot(service)
        slot = len(topology.shards[service]) - 1
        self._services_on[backend].append((service, slot))
        healthy = self._healthy_index[service]
        if (healthy is not None and topology.backend_up[backend]
                and topology.healthy_replicas[backend] > 0):
            # A new list, never an in-place append: callers may hold the
            # old one (see _healthy_slots).
            self._healthy_index[service] = healthy + [slot]
        # Extending a combination re-pushes the service's route config
        # to every replica of every member backend (the control-plane
        # fan-out the paper's push pipeline absorbs).
        pushes = sum(self.topology.total_replicas[b]
                     for b in self.topology.shards[service])
        self.counters.config_pushes += pushes

    def _append_slot(self, service: int) -> None:
        self.slot_sessions[service].append(0.0)

    # -- views & invariants ------------------------------------------------
    def active_sessions(self) -> float:
        return sum(_total(sessions) for sessions in self.slot_sessions)

    def overall_availability(self) -> float:
        counters = self.counters
        if counters.attempted <= 0:
            return 1.0
        return counters.admitted / counters.attempted

    def hottest_water(self, service: int) -> float:
        return max((self.backend_water[b]
                    for b in self.topology.shards[service]), default=0.0)

    def check_invariants(self, context: str = "") -> None:
        counters = self.counters
        active = self.active_sessions()
        residual = counters.admitted - (
            active + counters.departed + counters.disrupted)
        tolerance = 1e-6 * max(1.0, counters.admitted)
        if abs(residual) > tolerance:
            raise InvariantViolation(
                "fleet_session_conservation",
                f"admitted {counters.admitted:.6f} != active {active:.6f} "
                f"+ departed {counters.departed:.6f} "
                f"+ disrupted {counters.disrupted:.6f} "
                f"(residual {residual:.3e})", context)
        flows = counters.attempted - (counters.admitted + counters.rejected)
        if abs(flows) > tolerance:
            raise InvariantViolation(
                "fleet_admission_split",
                f"attempted {counters.attempted:.6f} != admitted "
                f"{counters.admitted:.6f} + rejected "
                f"{counters.rejected:.6f}", context)
        topology = self.topology
        for b in range(topology.n_backends):
            if not 0 <= topology.healthy_replicas[b] <= topology.total_replicas[b]:
                raise InvariantViolation(
                    "fleet_replica_bounds",
                    f"backend {b} has {topology.healthy_replicas[b]} healthy "
                    f"of {topology.total_replicas[b]} replicas", context)
        for sessions in self.slot_sessions:
            for value in sessions:
                if value < -1e-9:
                    raise InvariantViolation(
                        "fleet_nonnegative_sessions",
                        f"negative slot population {value}", context)

    def publish_telemetry(self) -> None:
        """Push run totals into the ambient telemetry registry."""
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        counters = self.counters
        labels = {"region": self.region}
        telemetry.inc("fleet_sessions_attempted_total",
                      counters.attempted, **labels)
        telemetry.inc("fleet_sessions_admitted_total",
                      counters.admitted, **labels)
        telemetry.inc("fleet_sessions_rejected_total",
                      counters.rejected, **labels)
        telemetry.inc("fleet_sessions_departed_total",
                      counters.departed, **labels)
        telemetry.inc("fleet_sessions_disrupted_total",
                      counters.disrupted, **labels)
        telemetry.inc("fleet_config_pushes_total",
                      counters.config_pushes, **labels)
        telemetry.set("fleet_active_sessions",
                      self.active_sessions(), **labels)
        telemetry.set("fleet_replicas_provisioned",
                      float(self.topology.replicas_provisioned()), **labels)


def _total(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total
