"""Tests for session aggregation via tunneling and the economics."""

import pytest

from repro.core import (
    RegionDemand,
    Replica,
    SessionAggregator,
    cost_reduction,
    deployment_footprint,
)
from repro.core.replica import ReplicaConfig
from repro.simcore import Simulator


@pytest.fixture
def replica():
    return Replica(Simulator(0), "r1", "az1", ReplicaConfig(cores=8))


class TestSessionAggregator:
    def test_tunnel_count_scales_with_cores(self, replica):
        aggregator = SessionAggregator(tunnels_per_core=10)
        assert aggregator.tunnel_count(replica) == 80

    def test_underlay_sessions_capped_by_tunnels(self, replica):
        """The headline effect: hundreds of thousands of sessions
        collapse to the tunnel count (§5.6)."""
        aggregator = SessionAggregator()
        assert aggregator.underlay_sessions(replica, 300_000) == 80
        assert aggregator.underlay_sessions(replica, 5) == 5

    def test_core_spread_is_even(self, replica):
        aggregator = SessionAggregator(tunnels_per_core=10)
        spread = aggregator.core_spread(replica)
        assert len(spread) == 8
        assert max(spread) - min(spread) <= 1


class TestEconomics:
    def _demand(self):
        return RegionDemand(services=100, azs=3, rps_per_service=110_000.0,
                            sessions_per_service=400_000.0,
                            lb_vm_cost_ratio=1.5)

    def test_baseline_has_lbs(self):
        footprint = deployment_footprint(self._demand(), redirector=False,
                                         tunneling=False)
        assert footprint.lb_vms > 0

    def test_redirector_eliminates_lbs(self):
        footprint = deployment_footprint(self._demand(), redirector=True,
                                         tunneling=False)
        assert footprint.lb_vms == 0

    def test_tunneling_cuts_session_bound_replicas(self):
        without = deployment_footprint(self._demand(), redirector=False,
                                       tunneling=False)
        with_tunnels = deployment_footprint(self._demand(), redirector=False,
                                            tunneling=True)
        assert with_tunnels.replica_vms < without.replica_vms

    def test_combined_saving_largest(self):
        demand = self._demand()
        redirector = cost_reduction(demand, redirector=True, tunneling=False)
        tunneling = cost_reduction(demand, redirector=False, tunneling=True)
        both = cost_reduction(demand, redirector=True, tunneling=True)
        assert both > redirector > 0
        assert both > tunneling > 0

    def test_not_proportional_to_session_drop(self):
        """§5.6: sessions drop to a few, but VMs are still needed for
        CPU — the saving is bounded well below the session ratio."""
        both = cost_reduction(self._demand(), redirector=True,
                              tunneling=True)
        assert both < 0.9

    def test_redirector_surcharge_applied(self):
        demand = RegionDemand(services=100, azs=1,
                              rps_per_service=500_000.0,
                              sessions_per_service=10_000.0)
        plain = deployment_footprint(demand, redirector=False,
                                     tunneling=True)
        with_redirector = deployment_footprint(demand, redirector=True,
                                               tunneling=True)
        # CPU-bound deployment: the redirector's ~1/13 surcharge can
        # cost replicas.
        assert with_redirector.replica_vms >= plain.replica_vms

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            RegionDemand(services=0)
        with pytest.raises(ValueError):
            RegionDemand(services=1, target_utilization=0.0)
