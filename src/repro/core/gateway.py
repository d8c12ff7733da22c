"""The centralized multi-tenant mesh gateway (§4.2, Fig 6/8).

One logical gateway per region serves every tenant's services:

* backends (replica groups) deployed per AZ behind a virtual IP;
* each service shuffle-sharded onto a unique backend combination that
  spans multiple backends per AZ and multiple AZs;
* AZ-aware DNS steering clients to healthy local backends first;
* a disaggregated load balancer (ECMP + Beamer redirectors) per
  (service, AZ) instead of dedicated LB VMs;
* fluid-mode load assignment for the production-scale experiments and
  DES-mode per-request processing for the testbed experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..netsim import AzAwareResolver, FiveTuple
from ..obs.runtime import get_telemetry
from ..resilience import ResiliencePolicies
from ..simcore import Simulator
from .backend import Backend
from .redirector import DeliveryResult, DisaggregatedLB
from .replica import (
    Replica,
    ReplicaConfig,
    require_at_least,
    require_finite_rps,
)
from .sharding import ShardingError, place_shard
from .tenancy import TenantRegistry, TenantService

__all__ = ["GatewayConfig", "MeshGateway", "NoBackendAvailable"]


class NoBackendAvailable(RuntimeError):
    """Every backend of a service is down (total outage for it)."""


@dataclass(frozen=True)
class GatewayConfig:
    """Deployment shape of one regional gateway."""

    replicas_per_backend: int = 2
    backends_per_service_per_az: int = 2
    azs_per_service: int = 2
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)
    buckets_per_service: int = 64
    redirector_max_chain: int = 4
    #: Water-level safety threshold that trips backend alerts (§4.2).
    safety_threshold: float = 0.7

    def __post_init__(self):
        for name in ("replicas_per_backend", "backends_per_service_per_az",
                     "azs_per_service", "buckets_per_service"):
            require_at_least(self, name, 1)
        # Beamer needs a chain of at least two replicas (BucketTable).
        require_at_least(self, "redirector_max_chain", 2)
        require_at_least(self, "safety_threshold", 0, inclusive=False)
        if self.safety_threshold > 1:
            raise ValueError(f"GatewayConfig.safety_threshold must be <= 1, "
                             f"got {self.safety_threshold!r}")


class MeshGateway:
    """A regional, multi-tenant, consolidated mesh gateway."""

    def __init__(self, sim: Simulator, config: GatewayConfig = GatewayConfig(),
                 registry: Optional[TenantRegistry] = None,
                 dns: Optional[AzAwareResolver] = None):
        self.sim = sim
        self.config = config
        self.registry = registry or TenantRegistry()
        self.dns = dns or AzAwareResolver(rng=sim.rng)
        self.backends_by_az: Dict[str, List[Backend]] = {}
        self.service_backends: Dict[int, List[Backend]] = {}
        self.service_lbs: Dict[Tuple[int, str], DisaggregatedLB] = {}
        #: Fluid-mode offered load per service (weighted RPS applied on
        #: distribution).
        self.service_rps: Dict[int, float] = {}
        #: Fluid-mode concurrent sessions per service.
        self.service_sessions: Dict[int, int] = {}
        #: Services currently quarantined (their load leaves the shared
        #: backends; see sandbox.py).
        self.sandboxed: Dict[int, Backend] = {}
        #: Installed resilience policy set (None = unprotected). Only
        #: the fault engine's query-of-death cascade and the invariant
        #: auditor read it; the request path never does.
        self.resilience: Optional[ResiliencePolicies] = None
        #: (service, flow) → incarnation of the replica that took the
        #: flow's session entry: a close frees only that entry.
        self._flow_incarnations: Dict[Tuple[int, FiveTuple], int] = {}
        #: Every registered service's initial shuffle-shard combination.
        self._combinations: Set[FrozenSet[Backend]] = set()
        self._backend_counter = 0

    def install_resilience(self, policies: ResiliencePolicies) -> None:
        """Attach a breaker set that contains query-of-death cascades."""
        self.resilience = policies

    # -- deployment -----------------------------------------------------------
    def deploy_backend(self, az: str,
                       replicas: Optional[int] = None) -> Backend:
        """Bring up a new backend (replica group) in an AZ."""
        self._backend_counter += 1
        backend = Backend(
            self.sim, name=f"backend-{self._backend_counter}", az=az,
            replicas=replicas or self.config.replicas_per_backend,
            replica_config=self.config.replica)
        self.backends_by_az.setdefault(az, []).append(backend)
        return backend

    def deploy_initial(self, azs: List[str], backends_per_az: int) -> None:
        for az in azs:
            for _ in range(backends_per_az):
                self.deploy_backend(az)

    @property
    def all_backends(self) -> List[Backend]:
        return [b for pool in self.backends_by_az.values() for b in pool]

    def backend_by_name(self, name: str) -> Backend:
        for backend in self.all_backends:
            if backend.name == name:
                return backend
        raise KeyError(f"no backend named {name!r}")

    # -- service registration ---------------------------------------------------
    def register_service(self, service: TenantService) -> List[Backend]:
        """Shuffle-shard a service onto backends and wire DNS + LBs."""
        if service.service_id in self.service_backends:
            raise ValueError(
                f"service {service.qualified_name} already registered")
        try:
            backends = self._place_shard()
        except ShardingError:
            # Combination space exhausted: grow the smallest AZ pools
            # and retry once. Only the smallest pools — growing every
            # AZ would over-provision regions whose pools are already
            # large enough to host more combinations.
            smallest = min(len(pool)
                           for pool in self.backends_by_az.values())
            for az in sorted(self.backends_by_az):
                if len(self.backends_by_az[az]) == smallest:
                    self.deploy_backend(az)
            try:
                backends = self._place_shard()
            except ShardingError as exc:
                raise ShardingError(
                    f"cannot place service {service.qualified_name}: "
                    f"combination space still exhausted after growing "
                    f"the smallest AZ pools (size {smallest} -> "
                    f"{smallest + 1}); deploy more backends or lower "
                    f"backends_per_service_per_az/azs_per_service"
                ) from exc
        for backend in backends:
            backend.install_service(service.service_id)
        self.service_backends[service.service_id] = list(backends)
        self._rebuild_lbs(service.service_id)
        for az in sorted({backend.az for backend in backends}):
            self.dns.register(self._dns_name(service.service_id),
                              address=f"vip-{service.service_id}-{az}", az=az)
        return backends

    def _place_shard(self) -> List[Backend]:
        # Live AZ load: filler services install onto backends directly.
        pools = list(self.backends_by_az.values())
        load = [sum(len(b.configured_services) for b in pool)
                for pool in pools]
        return place_shard(self.sim.rng, pools, load,
                           self.config.backends_per_service_per_az,
                           self.config.azs_per_service, self._combinations)

    def _dns_name(self, service_id: int) -> str:
        return f"svc-{service_id}.mesh.gateway"

    def _rebuild_lbs(self, service_id: int) -> None:
        """(Re)build the per-AZ disaggregated LBs over current replicas."""
        backends = self.service_backends[service_id]
        for az in sorted({backend.az for backend in backends}):
            replicas = [r for backend in backends if backend.az == az
                        for r in backend.replicas]
            self.service_lbs[(service_id, az)] = DisaggregatedLB(
                service_id, replicas,
                num_buckets=self.config.buckets_per_service,
                max_chain=self.config.redirector_max_chain)

    def extend_service(self, service_id: int, backend: Backend) -> None:
        """Scaling 'Reuse': configure the service onto one more backend."""
        backends = self.service_backends[service_id]
        if backend in backends:
            raise ValueError(
                f"service {service_id} already on {backend.name}")
        backend.install_service(service_id)
        backends.append(backend)
        self._rebuild_lbs(service_id)
        dns_name = self._dns_name(service_id)
        existing_azs = {record.az for record in self.dns.endpoints(dns_name)}
        if backend.az not in existing_azs:
            self.dns.register(dns_name,
                              address=f"vip-{service_id}-{backend.az}",
                              az=backend.az)
        self._respread(service_id)

    def shrink_service(self, service_id: int, backend: Backend) -> None:
        """Remove one backend from a service's set (migration/scale-in)."""
        backends = self.service_backends[service_id]
        if backend not in backends:
            raise ValueError(f"service {service_id} not on {backend.name}")
        if len(backends) == 1:
            raise ValueError(
                f"cannot remove the last backend of service {service_id}")
        backends.remove(backend)
        backend.remove_service(service_id)
        self._rebuild_lbs(service_id)
        self._respread(service_id)

    def _respread(self, service_id: int) -> None:
        """Re-spread a service's load and sessions after its backend
        set changed."""
        self._redistribute(service_id)
        sessions = self.service_sessions.get(service_id)
        if sessions is not None:
            self.set_service_sessions(service_id, sessions)

    # -- fluid-mode load -----------------------------------------------------------
    def _require_registered(self, service_id: int) -> None:
        if service_id not in self.service_backends:
            raise KeyError(f"service {service_id} is not registered")

    def set_service_load(self, service_id: int, rps: float) -> None:
        """Assign a registered service's current offered RPS and spread
        it."""
        self._require_registered(service_id)
        require_finite_rps(rps)
        if rps < 0:
            raise ValueError(f"negative rps {rps}")
        self.service_rps[service_id] = rps
        self._redistribute(service_id)

    def _available_backends(self, service_id: int) -> List[Backend]:
        sandbox = self.sandboxed.get(service_id)
        if sandbox is not None:
            return [sandbox] if sandbox.is_healthy else []
        return [b for b in self.service_backends.get(service_id, ())
                if b.is_healthy]

    def _carriers(self, service_id: int) -> List[Backend]:
        """Every backend that may hold the service's load or sessions:
        its shuffle-shard set plus its sandbox, if quarantined."""
        carriers = list(self.service_backends.get(service_id, ()))
        sandbox = self.sandboxed.get(service_id)
        if sandbox is not None and sandbox not in carriers:
            carriers.append(sandbox)
        return carriers

    def _redistribute(self, service_id: int) -> None:
        """Drop the service's load from every carrier, then place it
        evenly on the available ones (every carrier hosts the service,
        and the stored ``rps`` was checked on the way in)."""
        rps = self.service_rps.get(service_id, 0.0)
        service = self.registry.services.get(service_id)
        weight = service.request_weight if service is not None else 1.0
        targets = self._available_backends(service_id)
        for backend in self._carriers(service_id):
            backend.drop_load(service_id)
        if rps <= 0 or not targets:
            return
        share = rps / len(targets)
        if share == 0:
            # A subnormal rps split over backends underflows to zero,
            # and ``place_load`` needs a positive share.
            return
        for backend in targets:
            backend.place_load(service_id, share, weight)

    def set_service_sessions(self, service_id: int, sessions: int) -> None:
        """Assign a registered service's concurrent session count and
        spread it."""
        self._require_registered(service_id)
        if sessions < 0:
            raise ValueError(f"negative session count {sessions}")
        self.service_sessions[service_id] = sessions
        targets = self._available_backends(service_id)
        for backend in self._carriers(service_id):
            if backend.hosts_service(service_id):
                backend.offer_sessions(service_id, 0)
        if sessions <= 0 or not targets:
            return
        share = sessions // len(targets)
        for backend in targets:
            backend.offer_sessions(service_id, share)

    def refresh_loads(self) -> None:
        """Re-spread every service (after failures/topology changes)."""
        for service_id in list(self.service_rps):
            self._redistribute(service_id)
        for service_id, sessions in list(self.service_sessions.items()):
            self.set_service_sessions(service_id, sessions)

    # -- failure handling -------------------------------------------------------------
    # Each ``fail_*`` returns the sessions it disrupted, counted before
    # the crash: a replica's session table dies with the VM. A target
    # already down holds none, so re-failing it disrupts 0.
    def fail_replica(self, backend_name: str, replica_name: str) -> int:
        backend = self.backend_by_name(backend_name)
        disrupted = backend.replica_by_name(replica_name).sessions_used
        backend.fail_replica(replica_name)
        self.update_dns_health(backend.az)
        self.refresh_loads()
        return disrupted

    def recover_replica(self, backend_name: str, replica_name: str) -> None:
        backend = self.backend_by_name(backend_name)
        backend.recover_replica(replica_name)
        self.update_dns_health(backend.az)
        self.refresh_loads()

    def fail_backend(self, name: str) -> int:
        backend = self.backend_by_name(name)
        disrupted = sum(r.sessions_used for r in backend.replicas)
        backend.fail_all()
        self.update_dns_health(backend.az)
        self.refresh_loads()
        return disrupted

    def recover_backend(self, name: str) -> None:
        backend = self.backend_by_name(name)
        backend.recover_all()
        self.update_dns_health(backend.az)
        self.refresh_loads()

    def fail_az(self, az: str) -> int:
        """Power outage: every backend in the AZ goes down (§4.2)."""
        backends = self.backends_by_az.get(az, ())
        disrupted = sum(r.sessions_used for b in backends
                        for r in b.replicas)
        for backend in backends:
            backend.fail_all()
        self.update_dns_health(az)
        self.refresh_loads()
        return disrupted

    def recover_az(self, az: str) -> None:
        for backend in self.backends_by_az.get(az, ()):
            backend.recover_all()
        self.update_dns_health(az)
        self.refresh_loads()

    def update_dns_health(self, az: str) -> None:
        """Re-derive per-service DNS health for one AZ.

        Every health change calls this, replica-scoped ones included:
        an AZ whose last replica dies must stop resolving, and one whose
        first replica returns must resolve again.
        """
        for service_id, backends in self.service_backends.items():
            az_backends = [b for b in backends if b.az == az]
            if not az_backends:
                continue
            healthy = any(b.is_healthy for b in az_backends)
            try:
                self.dns.set_health(self._dns_name(service_id),
                                    f"vip-{service_id}-{az}", healthy)
            except KeyError:
                continue

    # -- DES-mode dataplane ----------------------------------------------------------
    def deliver(self, service_id: int, flow: FiveTuple, is_syn: bool,
                client_az: str, route_cache: dict) -> DeliveryResult:
        """Steer one packet to a replica (DNS → AZ → redirectors).

        ``route_cache`` is a dict owned by the flow's connection. An
        established flow's result is kept there under ``"route"`` with
        its LB and that LB's epoch, and later non-SYN packets reuse it
        while both still match; a new-flow result drops it. DNS still
        resolves on every packet.
        """
        telemetry = get_telemetry()
        record = self.dns.resolve(self._dns_name(service_id), client_az)
        lb = self.service_lbs.get((service_id, record.az))
        if lb is None:
            telemetry.inc("gateway_no_backend_total",
                          service=str(service_id))
            raise NoBackendAvailable(
                f"service {service_id} has no LB in {record.az}")
        route = None if is_syn else route_cache.get("route")
        if route is not None and route[0] is lb and route[1] == lb.epoch:
            result = lb.redeliver(route[2])
        else:
            try:
                result = lb.deliver(flow, is_syn)
            except RuntimeError as exc:
                # DNS may lag replica health (e.g. failures injected
                # below the gateway API); an empty chain is still a 503.
                telemetry.inc("gateway_no_backend_total",
                              service=str(service_id))
                raise NoBackendAvailable(str(exc)) from exc
            if result.is_new_flow:
                route_cache.pop("route", None)
            else:
                route_cache["route"] = (lb, lb.epoch, result)
        if telemetry.enabled:
            telemetry.inc("gateway_deliveries_total",
                          service=str(service_id), az=record.az)
            if result.redirection_hops:
                telemetry.inc("gateway_redirection_hops_total",
                              amount=result.redirection_hops,
                              service=str(service_id))
        return result

    def process_request(self, service_id: int, flow: FiveTuple,
                        is_syn: bool, client_az: str, route_cache: dict,
                        trace=None, parent_id: int = 1, hop_s: float = 0.0,
                        onward_hops: int = 0, onward_s: float = 0.0):
        """Process generator: deliver + execute one request's L7 work.

        The replica's work and the fixed delay after it are one wait:
        one ``hop_s`` per redirection hop in the replica chain, plus
        ``onward_hops`` more, plus ``onward_s``. The caller names the
        terms; the chain's length is known only here, at delivery.

        With a ``trace`` handle, the whole gateway pass becomes an
        ``l7`` span under ``parent_id`` — annotated with the LB pick
        (replica, redirection hops) — enclosing the replica-execution
        child span. ``route_cache`` is passed on to :meth:`deliver`.
        """
        start = self.sim.now
        l7_id = trace.reserve_id() if trace is not None else 0
        result = self.deliver(service_id, flow, is_syn, client_az,
                              route_cache)
        if result.is_new_flow:
            self._track_session(service_id, flow, result.replica)
        service = self.registry.services.get(service_id)
        weight = service.request_weight if service is not None else 1.0
        end = yield from result.replica.process_request(
            weight, trace=trace, parent_id=l7_id,
            after_s=((result.redirection_hops + onward_hops) * hop_s
                     + onward_s))
        get_telemetry().inc("gateway_requests_total",
                            service=str(service_id),
                            replica=result.replica.name)
        if trace is not None:
            trace.add("gateway-l7", "l7", start, end,
                      parent_id=parent_id, span_id=l7_id,
                      source=f"gateway/{result.replica.name}",
                      replica=result.replica.name,
                      redirection_hops=result.redirection_hops,
                      new_flow=result.is_new_flow)
        return result

    def _track_session(self, service_id: int, flow: FiveTuple,
                       replica: Replica) -> None:
        """Account the SmartNIC session entry of one new flow (§3.2).

        Every user flow is one entry, so the table can fill while CPU
        idles. The §4.4 fix, tunneling that caps entries per replica, is
        modeled by :class:`~repro.core.session_aggregation.SessionAggregator`
        and by :mod:`repro.core.economics`' ``tunneling`` switch.
        """
        if not replica.add_sessions(1):
            # A refused flow leaves no owner in the LB: closing its
            # connection must not free another flow's entry.
            self._release_flow(service_id, flow)
            get_telemetry().inc("gateway_session_exhaustion_total",
                                replica=replica.name)
            raise NoBackendAvailable(
                f"replica {replica.name}'s session table is exhausted "
                f"({replica.config.session_capacity} entries) — scale out")
        self._flow_incarnations[(service_id, flow)] = replica.incarnation

    def close_flow(self, service_id: int, flow: FiveTuple) -> None:
        """Tear down one user flow's state (connection close).

        The flow's session entry is freed only if its owner has not
        crashed since taking it: a crash already dropped it, and a
        recovered replica's entries belong to later flows.
        """
        owner = self._release_flow(service_id, flow)
        taken = self._flow_incarnations.pop((service_id, flow), None)
        if owner is not None and taken == owner.incarnation:
            owner.remove_sessions(1)

    def _release_flow(self, service_id: int,
                      flow: FiveTuple) -> Optional[Replica]:
        """Drop the flow's LB entry; return the replica that owned it."""
        for (sid, _az), lb in self.service_lbs.items():
            if sid != service_id:
                continue
            owner = lb.flows.owner(flow)
            if owner is not None:
                lb.close_flow(flow)
                return lb.replica(owner)
        return None

    # -- monitoring views --------------------------------------------------------------
    def water_levels(self) -> Dict[str, float]:
        return {backend.name: backend.water_level()
                for backend in self.all_backends}

    def overloaded_backends(self) -> List[Backend]:
        return [backend for backend in self.all_backends
                if backend.water_level() > self.config.safety_threshold]

    def service_outage(self, service_id: int) -> bool:
        """True when the service has no healthy backend anywhere."""
        return not self._available_backends(service_id)
