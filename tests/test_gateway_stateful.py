"""Stateful chaos testing of the gateway (hypothesis rule-based).

Random interleavings of the operations a production gateway sees —
load changes, backend/AZ failures and recoveries, service extension and
shrinking, sandbox quarantine — must preserve the invariants the
paper's availability story rests on:

* load conservation: carried RPS equals offered RPS whenever the
  service has a healthy carrier;
* availability: a service is in outage only when *every* carrier
  backend is down;
* cache coherence: every cached fluid-mode read (healthy replicas,
  health, water levels, capacity, session occupancy) equals its
  from-scratch formula exactly, whichever path changed health or load;
* no operation sequence crashes the control plane.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core import GatewayConfig, MeshGateway, SandboxManager
from repro.core.replica import ReplicaConfig
from repro.simcore import Simulator


class GatewayMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.sim = Simulator(1234)
        config = GatewayConfig(
            replicas_per_backend=2, backends_per_service_per_az=2,
            azs_per_service=2,
            replica=ReplicaConfig(cores=8, request_cost_s=100e-6))
        self.gateway = MeshGateway(self.sim, config)
        self.gateway.deploy_initial(["az1", "az2"], 5)
        self.sandbox = SandboxManager(self.sim, self.gateway)
        self.services = []
        for index in range(4):
            tenant = self.gateway.registry.add_tenant(f"t{index}")
            service = self.gateway.registry.add_service(
                tenant, "web", f"10.0.0.{index + 1}")
            self.gateway.register_service(service)
            self.gateway.set_service_load(service.service_id, 10_000.0)
            self.gateway.set_service_sessions(service.service_id, 40_000)
            self.services.append(service)
        self.offered = {s.service_id: 10_000.0 for s in self.services}

    # -- operations --------------------------------------------------------
    @rule(index=st.integers(0, 3),
          rps=st.floats(min_value=0, max_value=300_000))
    def set_load(self, index, rps):
        sid = self.services[index].service_id
        self.gateway.set_service_load(sid, rps)
        self.offered[sid] = rps

    @rule(backend_index=st.integers(0, 9))
    def fail_backend(self, backend_index):
        backends = self.gateway.all_backends
        self.gateway.fail_backend(
            backends[backend_index % len(backends)].name)

    @rule(backend_index=st.integers(0, 9))
    def recover_backend(self, backend_index):
        backends = self.gateway.all_backends
        self.gateway.recover_backend(
            backends[backend_index % len(backends)].name)

    @rule(az=st.sampled_from(["az1", "az2"]))
    def fail_az(self, az):
        self.gateway.fail_az(az)

    @rule(az=st.sampled_from(["az1", "az2"]))
    def recover_az(self, az):
        self.gateway.recover_az(az)

    @rule(index=st.integers(0, 3))
    def extend(self, index):
        sid = self.services[index].service_id
        spare = next((b for b in self.gateway.all_backends
                      if not b.hosts_service(sid)
                      and b not in self.gateway.sandboxed.values()), None)
        if spare is not None:
            self.gateway.extend_service(sid, spare)

    @rule(index=st.integers(0, 3))
    def shrink(self, index):
        sid = self.services[index].service_id
        backends = self.gateway.service_backends[sid]
        if len(backends) > 1:
            self.gateway.shrink_service(sid, backends[-1])

    def _replica(self, backend_index, replica_index):
        backends = self.gateway.all_backends
        backend = backends[backend_index % len(backends)]
        return backend, backend.replicas[replica_index % len(backend.replicas)]

    def _replica_health_changed(self, backend):
        """What the gateway's replica fault methods do after the
        backend call."""
        self.gateway.update_dns_health(backend.az)
        self.gateway.refresh_loads()

    @rule(backend_index=st.integers(0, 9), replica_index=st.integers(0, 2))
    def fail_replica(self, backend_index, replica_index):
        backend, replica = self._replica(backend_index, replica_index)
        self.gateway.fail_replica(backend.name, replica.name)

    @rule(backend_index=st.integers(0, 9), replica_index=st.integers(0, 2))
    def recover_replica(self, backend_index, replica_index):
        backend, replica = self._replica(backend_index, replica_index)
        self.gateway.recover_replica(backend.name, replica.name)

    @rule(backend_index=st.integers(0, 9), replica_index=st.integers(0, 2),
          healthy=st.booleans())
    def set_replica_health(self, backend_index, replica_index, healthy):
        """Health flipped by plain assignment, below every API."""
        backend, replica = self._replica(backend_index, replica_index)
        replica.healthy = healthy
        self._replica_health_changed(backend)

    @rule(index=st.integers(0, 3))
    def quarantine(self, index):
        sid = self.services[index].service_id
        if sid not in self.gateway.sandboxed:
            process = self.sim.process(self.sandbox.migrate_lossy(sid))
            self.sim.run()

    @rule(index=st.integers(0, 3))
    def release(self, index):
        sid = self.services[index].service_id
        if sid in self.gateway.sandboxed:
            self.sandbox.release(sid)

    # -- invariants -----------------------------------------------------------
    @invariant()
    def load_is_conserved(self):
        for service in getattr(self, "services", []):
            sid = service.service_id
            expected = self.offered[sid]
            carriers = list(self.gateway.service_backends[sid])
            quarantine = self.gateway.sandboxed.get(sid)
            if quarantine is not None:
                carriers = [quarantine]
            healthy = [b for b in carriers if b.is_healthy]
            carried = sum(b.service_rps(sid) for b in healthy)
            if healthy and expected > 0:
                assert carried == pytest.approx(expected, rel=1e-6)
            else:
                assert carried == 0.0

    @invariant()
    def outage_only_when_all_carriers_down(self):
        for service in getattr(self, "services", []):
            sid = service.service_id
            quarantine = self.gateway.sandboxed.get(sid)
            if quarantine is not None:
                carriers = [quarantine]
            else:
                carriers = self.gateway.service_backends[sid]
            any_up = any(b.is_healthy for b in carriers)
            assert self.gateway.service_outage(sid) == (not any_up)

    @invariant()
    def cached_reads_match_formulas(self):
        if not hasattr(self, "gateway"):
            return
        # Sandboxes leave the AZ pools, so add the ones in use.
        for backend in (self.gateway.all_backends
                        + list(self.gateway.sandboxed.values())):
            healthy = [r for r in backend.replicas if r.healthy]
            # The backend's services in the order they were placed.
            loads = list(backend._service_rps.items())
            for service_id, rps in loads:
                assert rps > 0 and backend.hosts_service(service_id)
            assert backend.healthy_replicas() == healthy
            assert backend.is_healthy == bool(healthy)
            if healthy:
                config = backend.replica_config
                weight = self.gateway.registry.services
                carried = sum(rps / len(healthy)
                              * weight[service_id].request_weight
                              for service_id, rps in loads)
                water = min(1.0,
                            carried / (config.cores / config.request_cost_s))
                sessions = sum(
                    r.sessions_used / r.config.session_capacity
                    for r in healthy) / len(healthy)
            else:
                water = sessions = 0.0
            assert backend.water_level() == water
            assert backend.session_utilization() == sessions
            assert backend.capacity_rps() == sum(
                r.config.cores / r.config.request_cost_s for r in healthy)


GatewayMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None)
TestGatewayChaos = GatewayMachine.TestCase
