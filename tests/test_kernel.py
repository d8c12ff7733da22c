"""Tests for the kernel dataplane cost models."""

import pytest

from repro.kernel import (
    EbpfRedirect,
    IptablesRedirect,
    KernelCosts,
    NagleConfig,
    PathCost,
    batch_factor,
)


class TestPathCost:
    def test_addition(self):
        total = (PathCost(cpu_s=1.0, context_switches=2)
                 + PathCost(cpu_s=0.5, context_switches=1, stack_passes=4))
        assert total.cpu_s == 1.5
        assert total.context_switches == 3
        assert total.stack_passes == 4

    def test_scaling(self):
        scaled = PathCost(cpu_s=1.0, context_switches=2).scaled(3.0)
        assert scaled.cpu_s == 3.0
        assert scaled.context_switches == 6


class TestBatchFactor:
    def setup_method(self):
        self.config = NagleConfig()

    def test_large_messages_not_aggregated(self):
        assert batch_factor(2000, 1000.0, self.config) == 1.0

    def test_low_rate_not_aggregated(self):
        # One 16-byte message per second: nothing to coalesce with.
        assert batch_factor(16, 1.0, self.config) == pytest.approx(
            1.0 + self.config.flush_delay_s, rel=0.01)

    def test_small_fast_messages_aggregate(self):
        factor = batch_factor(16, 4000.0, self.config)
        assert factor > 2.0

    def test_size_bound_binds(self):
        # Huge rate: aggregation capped by MSS/size.
        factor = batch_factor(730, 1e6, self.config)
        assert factor == pytest.approx(self.config.mss_bytes / 730)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            batch_factor(0, 100.0, self.config)
        with pytest.raises(ValueError):
            batch_factor(16, -1.0, self.config)


class TestNagleConfig:
    def test_zero_mss_rejected_by_name(self):
        with pytest.raises(ValueError, match="mss_bytes"):
            NagleConfig(mss_bytes=0)

    def test_negative_flush_delay_rejected_by_name(self):
        with pytest.raises(ValueError, match="flush_delay_s"):
            NagleConfig(flush_delay_s=-1.0)

    def test_nan_flush_delay_rejected_by_name(self):
        with pytest.raises(ValueError, match="flush_delay_s"):
            NagleConfig(flush_delay_s=float("nan"))


class TestRedirects:
    def test_iptables_pays_stack_passes(self):
        cost = IptablesRedirect().message_cost(1024)
        assert cost.stack_passes == 2
        assert cost.context_switches == 2

    def test_ebpf_pays_one_context_switch(self):
        cost = EbpfRedirect().message_cost(1024)
        assert cost.stack_passes == 0
        assert cost.context_switches == 1

    def test_ebpf_cheaper_per_message(self):
        assert (EbpfRedirect().message_cost(1024).cpu_s
                < IptablesRedirect().message_cost(1024).cpu_s)

    def test_fig22_ebpf_no_nagle_has_higher_ctx_rate(self):
        """The paper's small-packet finding: kernel bypass without Nagle
        context-switches more often than iptables with kernel Nagle."""
        iptables = IptablesRedirect().path_cost(16, 4000.0)
        ebpf_raw = EbpfRedirect(nagle_enabled=False).path_cost(16, 4000.0)
        assert ebpf_raw.context_switches > iptables.context_switches

    def test_ebpf_nagle_fix_restores_advantage(self):
        iptables = IptablesRedirect().path_cost(16, 4000.0)
        ebpf_fixed = EbpfRedirect(nagle_enabled=True).path_cost(16, 4000.0)
        assert ebpf_fixed.context_switches < iptables.context_switches
        assert ebpf_fixed.cpu_s < iptables.cpu_s

    def test_large_packets_unaffected_by_nagle(self):
        with_nagle = EbpfRedirect(nagle_enabled=True).path_cost(4000, 1000.0)
        without = EbpfRedirect(nagle_enabled=False).path_cost(4000, 1000.0)
        assert with_nagle.context_switches == without.context_switches

    def test_copy_cost_scales_with_bytes(self):
        costs = KernelCosts()
        assert costs.copy_cost(2000) == pytest.approx(2 * costs.copy_cost(1000))
