"""Tests for regions/AZs/nodes and the latency model."""

import pytest

from repro.netsim import LatencyModel, NetLocation, Topology


class TestNetLocation:
    def test_same_node(self):
        a = NetLocation("r1", "az1", "n1")
        assert a.same_node(NetLocation("r1", "az1", "n1"))
        assert not a.same_node(NetLocation("r1", "az1", "n2"))

    def test_same_az_and_region(self):
        a = NetLocation("r1", "az1", "n1")
        assert a.same_az(NetLocation("r1", "az1", "n2"))
        assert not a.same_az(NetLocation("r1", "az2", "n2"))
        assert a.same_region(NetLocation("r1", "az2", "n3"))


class TestLatencyModel:
    def setup_method(self):
        self.model = LatencyModel()
        self.a = NetLocation("r1", "az1", "n1")

    def test_ordering_of_distances(self):
        same_node = self.model.one_way(self.a, self.a)
        same_az = self.model.one_way(self.a, NetLocation("r1", "az1", "n2"))
        cross_az = self.model.one_way(self.a, NetLocation("r1", "az2", "n9"))
        cross_region = self.model.one_way(
            self.a, NetLocation("r2", "az1", "n1"))
        assert same_node < same_az < cross_az < cross_region

    def test_intra_az_rtt_below_1ms(self):
        """The paper's anchor: RTT within an AZ is less than 1 ms."""
        rtt = self.model.rtt(self.a, NetLocation("r1", "az1", "n2"))
        assert rtt < 1e-3

    def test_rtt_is_twice_one_way(self):
        b = NetLocation("r1", "az2", "n2")
        assert self.model.rtt(self.a, b) == 2 * self.model.one_way(self.a, b)


class TestTopology:
    def test_single_az_testbed_layout(self):
        topo = Topology.single_az_testbed(worker_nodes=2)
        nodes = topo.all_nodes()
        assert len(nodes) == 3  # master + 2 workers
        assert nodes[0].name == "master"
        assert len(topo.all_azs()) == 1

    def test_multi_az_region_layout(self):
        topo = Topology.multi_az_region(azs=3, nodes_per_az=4)
        assert len(topo.all_azs()) == 3
        assert len(topo.all_nodes()) == 12

    def test_duplicate_region_rejected(self):
        topo = Topology()
        topo.add_region("r1")
        with pytest.raises(ValueError):
            topo.add_region("r1")

    def test_node_location(self):
        topo = Topology.multi_az_region(azs=1, nodes_per_az=1)
        node = topo.all_nodes()[0]
        location = node.location
        assert location.region == "region1"
        assert location.az == "az1"
