"""The centralized multi-tenant mesh gateway (§4.2, Fig 6/8).

One logical gateway per region serves every tenant's services:

* backends (replica groups) deployed per AZ behind a virtual IP;
* each service shuffle-sharded onto a unique backend combination that
  spans multiple backends per AZ and multiple AZs;
* AZ-aware DNS steering clients to healthy local backends first;
* a disaggregated load balancer (ECMP + Beamer redirectors) per
  (service, AZ) instead of dedicated LB VMs;
* fluid-mode load assignment for the production-scale experiments and
  DES-mode per-request processing for the testbed experiments;
* per-service throttles (the redirector-level early drop of §6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..mesh.policy import RateLimiter
from ..netsim import AzAwareResolver, FiveTuple, ResolutionError
from ..obs.runtime import get_telemetry
from ..resilience import CircuitOpenError, ResiliencePolicies
from ..simcore import Simulator
from .backend import Backend
from .redirector import DeliveryResult, DisaggregatedLB
from .replica import (
    Replica,
    ReplicaConfig,
    require_at_least,
    require_finite_rps,
)
from .sharding import ShardingError, ShuffleSharder
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
    #: Session aggregation via tunneling (§4.4): when on, the SmartNIC
    #: tracks at most tunnels_per_core × cores underlay sessions per
    #: replica regardless of user flow count.
    session_aggregation: bool = False
    tunnels_per_core: int = 10

    def __post_init__(self):
        for name in ("replicas_per_backend", "backends_per_service_per_az",
                     "azs_per_service", "buckets_per_service",
                     "tunnels_per_core"):
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
        self.sharder = ShuffleSharder(
            sim.rng,
            backends_per_service_per_az=config.backends_per_service_per_az,
            azs_per_service=config.azs_per_service)
        self.backends_by_az: Dict[str, List[Backend]] = {}
        self.service_backends: Dict[int, List[Backend]] = {}
        self.service_lbs: Dict[Tuple[int, str], DisaggregatedLB] = {}
        #: Fluid-mode offered load per service (weighted RPS applied on
        #: distribution).
        self.service_rps: Dict[int, float] = {}
        #: Fluid-mode concurrent sessions per service.
        self.service_sessions: Dict[int, int] = {}
        self.throttles: Dict[int, RateLimiter] = {}
        #: Services currently quarantined (their load leaves the shared
        #: backends; see sandbox.py).
        self.sandboxed: Dict[int, Backend] = {}
        #: Installed resilience policy set (None = unprotected; every
        #: consultation below guards on this so unprotected runs are
        #: byte-identical with the pre-resilience gateway).
        self.resilience: Optional[ResiliencePolicies] = None
        self._backend_counter = 0

    def install_resilience(self, policies: ResiliencePolicies) -> None:
        """Attach a policy set to every later dispatch."""
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
            backends = self.sharder.assign(service.service_id,
                                           self.backends_by_az)
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
                backends = self.sharder.assign(service.service_id,
                                               self.backends_by_az)
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
        self._redistribute(service_id)

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
        self._redistribute(service_id)

    # -- fluid-mode load -----------------------------------------------------------
    def set_service_load(self, service_id: int, rps: float) -> None:
        """Assign a service's current offered RPS and spread it.

        The stored value is the *offered* load; any throttle caps the
        carried load at distribution time, so the full rate returns
        automatically when the throttle lifts.
        """
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

    def _redistribute(self, service_id: int) -> None:
        rps = self.service_rps.get(service_id, 0.0)
        throttle = self.throttles.get(service_id)
        if throttle is not None:
            rps = min(rps, throttle.rate_per_s)
        service = self.registry.services.get(service_id)
        weight = service.request_weight if service is not None else 1.0
        targets = self._available_backends(service_id)
        # Clear the service's load from every backend that might carry
        # it, then spread over the available set.
        carriers = list(self.service_backends.get(service_id, ()))
        sandbox = self.sandboxed.get(service_id)
        if sandbox is not None and sandbox not in carriers:
            carriers.append(sandbox)
        for backend in carriers:
            if backend.hosts_service(service_id):
                backend.offer_load(service_id, 0.0)
        if rps <= 0 or not targets:
            return
        share = rps / len(targets)
        for backend in targets:
            backend.offer_load(service_id, share, weight)

    def set_service_sessions(self, service_id: int, sessions: int) -> None:
        """Assign a service's concurrent session count and spread it."""
        if sessions < 0:
            raise ValueError(f"negative session count {sessions}")
        self.service_sessions[service_id] = sessions
        targets = self._available_backends(service_id)
        carriers = list(self.service_backends.get(service_id, ()))
        sandbox = self.sandboxed.get(service_id)
        if sandbox is not None and sandbox not in carriers:
            carriers.append(sandbox)
        for backend in carriers:
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

    # -- throttling (redirector-level early drop, §6.2) ---------------------------
    def throttle_service(self, service_id: int, rate_per_s: float) -> None:
        self.throttles[service_id] = RateLimiter(rate_per_s)
        get_telemetry().inc("gateway_throttles_installed_total",
                            service=str(service_id))
        self._redistribute(service_id)

    def unthrottle_service(self, service_id: int) -> None:
        self.throttles.pop(service_id, None)
        self._redistribute(service_id)

    # -- failure handling -------------------------------------------------------------
    def fail_backend(self, name: str) -> None:
        backend = self.backend_by_name(name)
        backend.fail_all()
        self._update_dns_health(backend.az)
        self.refresh_loads()

    def recover_backend(self, name: str) -> None:
        backend = self.backend_by_name(name)
        backend.recover_all()
        self._update_dns_health(backend.az)
        self.refresh_loads()

    def fail_az(self, az: str) -> None:
        """Power outage: every backend in the AZ goes down (§4.2)."""
        for backend in self.backends_by_az.get(az, ()):
            backend.fail_all()
        self._update_dns_health(az)
        self.refresh_loads()

    def recover_az(self, az: str) -> None:
        for backend in self.backends_by_az.get(az, ()):
            backend.recover_all()
        self._update_dns_health(az)
        self.refresh_loads()

    def update_dns_health(self, az: str) -> None:
        """Re-derive per-service DNS health for one AZ.

        Needed whenever replica health changes *below* the
        backend-level failure API (e.g. replica-scoped fault
        injection): an AZ whose last replica dies must stop resolving,
        and one whose first replica returns must resolve again.
        """
        self._update_dns_health(az)

    def _update_dns_health(self, az: str) -> None:
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
                client_az: str) -> DeliveryResult:
        """Steer one packet to a replica (DNS → AZ → redirectors)."""
        telemetry = get_telemetry()
        record = self.dns.resolve(self._dns_name(service_id), client_az)
        lb = self.service_lbs.get((service_id, record.az))
        if lb is None:
            telemetry.inc("gateway_no_backend_total",
                          service=str(service_id))
            raise NoBackendAvailable(
                f"service {service_id} has no LB in {record.az}")
        try:
            result = lb.deliver(flow, is_syn)
        except RuntimeError as exc:
            # DNS may lag replica health (e.g. failures injected below
            # the gateway API); an empty chain is still a 503.
            telemetry.inc("gateway_no_backend_total",
                          service=str(service_id))
            raise NoBackendAvailable(str(exc)) from exc
        if telemetry.enabled:
            telemetry.inc("gateway_deliveries_total",
                          service=str(service_id), az=record.az)
            if result.redirection_hops:
                telemetry.inc("gateway_redirection_hops_total",
                              amount=result.redirection_hops,
                              service=str(service_id))
        return result

    def process_request(self, service_id: int, flow: FiveTuple,
                        is_syn: bool, client_az: str, trace=None,
                        parent_id: int = 1):
        """Process generator: deliver + execute one request's L7 work.

        With a ``trace`` handle, the whole gateway pass becomes an
        ``l7`` span under ``parent_id`` — annotated with the LB pick
        (replica, redirection hops) — enclosing the replica-execution
        child span.
        """
        start = self.sim.now
        policies = self.resilience
        if policies is not None and not policies.allow_dispatch(
                service_id, self.sim.now):
            raise CircuitOpenError(
                f"service {service_id}'s circuit breaker is "
                f"{policies.breaker_state(service_id)}")
        l7_id = trace.reserve_id() if trace is not None else 0
        try:
            result = self.deliver(service_id, flow, is_syn, client_az)
            if result.is_new_flow:
                self._track_session(result.replica)
        except (NoBackendAvailable, ResolutionError):
            # Both shapes of "nothing to dispatch to" feed the breaker.
            if policies is not None:
                policies.record_dispatch(service_id, self.sim.now,
                                         ok=False)
            raise
        service = self.registry.services.get(service_id)
        weight = service.request_weight if service is not None else 1.0
        yield from result.replica.process_request(weight, trace=trace,
                                                  parent_id=l7_id)
        if policies is not None:
            policies.record_dispatch(service_id, self.sim.now, ok=True)
        get_telemetry().inc("gateway_requests_total",
                            service=str(service_id),
                            replica=result.replica.name)
        if trace is not None:
            annotations = dict(
                replica=result.replica.name,
                redirection_hops=result.redirection_hops,
                new_flow=result.is_new_flow,
                tunneled=self.config.session_aggregation)
            if policies is not None:
                annotations["breaker"] = policies.breaker_state(service_id)
            trace.add("gateway-l7", "l7", start, self.sim.now,
                      parent_id=parent_id, span_id=l7_id,
                      source=f"gateway/{result.replica.name}",
                      **annotations)
        return result

    def _track_session(self, replica: Replica) -> None:
        """Account the underlay session state of one new flow (§3.2/§4.4).

        Without tunneling, every user flow is a SmartNIC entry and the
        table can fill while CPU idles. With tunneling, at most
        tunnels_per_core × cores entries exist per replica.
        """
        if self.config.session_aggregation:
            cap = self.config.tunnels_per_core * replica.config.cores
            if replica.sessions_used < cap:
                replica.add_sessions(1)
            return
        if not replica.add_sessions(1):
            get_telemetry().inc("gateway_session_exhaustion_total",
                                replica=replica.name)
            raise NoBackendAvailable(
                f"replica {replica.name}'s session table is exhausted "
                f"({replica.config.session_capacity} entries) — scale "
                f"out or enable session aggregation")

    def close_flow(self, service_id: int, flow: FiveTuple) -> None:
        """Tear down one user flow's state (connection close)."""
        for (sid, _az), lb in self.service_lbs.items():
            if sid != service_id:
                continue
            owner = lb.flows.owner(flow)
            if owner is None:
                continue
            lb.close_flow(flow)
            if not self.config.session_aggregation:
                lb.replica(owner).remove_sessions(1)
            return

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
