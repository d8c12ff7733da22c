"""Tests for flow five-tuples and their hash."""

import pytest

from repro.netsim import FiveTuple


def make_flow(sport=12345):
    return FiveTuple("10.0.0.1", sport, "10.0.0.2", 80)


class TestFiveTuple:
    def test_port_range_validated(self):
        with pytest.raises(ValueError):
            FiveTuple("1.1.1.1", 70000, "2.2.2.2", 80)

    def test_hash_deterministic(self):
        assert make_flow().flow_hash() == make_flow().flow_hash()

    def test_hash_salt_changes_value(self):
        flow = make_flow()
        assert flow.flow_hash(0) != flow.flow_hash(1)

    def test_distinct_flows_differ(self):
        assert make_flow(1000).flow_hash() != make_flow(1001).flow_hash()

    def test_hashable_as_dict_key(self):
        mapping = {make_flow(): "value"}
        assert mapping[make_flow()] == "value"
