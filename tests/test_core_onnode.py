"""Tests for Canal's minimal on-node proxy."""

import pytest

from repro.core import OnNodeProxy
from repro.mesh import DEFAULT_COSTS
from repro.obs import Telemetry, use_telemetry
from repro.simcore import Simulator


@pytest.fixture
def sim():
    return Simulator(0)


@pytest.fixture
def proxy(sim):
    return OnNodeProxy(sim, "worker1", "az1", cores=1)


class TestDataPath:
    def test_cost_includes_ebpf_and_l4(self, proxy):
        cost = proxy.data_path_cost_s(1000)
        expected = (DEFAULT_COSTS.ebpf_redirect_cpu_s()
                    + DEFAULT_COSTS.canal_onnode_l4_s
                    + DEFAULT_COSTS.symmetric_cost(1000))
        assert cost == pytest.approx(expected)

    def test_mtls_adds_symmetric_crypto(self, proxy):
        """Only the symmetric-crypto term grows with the message."""
        small = proxy.data_path_cost_s(1000)
        large = proxy.data_path_cost_s(10_000)
        assert large - small == pytest.approx(
            DEFAULT_COSTS.symmetric_cost(10_000)
            - DEFAULT_COSTS.symmetric_cost(1000))
        assert large > small

    def test_process_message_consumes_cpu(self, sim, proxy):
        sim.process(proxy.process_message("pod-1", "svc", 100, 1000))
        sim.run()
        assert proxy.tier.cpu.busy_time() > 0

    def test_cheaper_than_a_sidecar_pass(self, proxy):
        """The architectural claim: the on-node proxy is far lighter
        than a sidecar's L7 pass."""
        onnode = proxy.data_path_cost_s(1152)
        sidecar = (DEFAULT_COSTS.istio_sidecar_l7_s
                   + 2 * DEFAULT_COSTS.iptables_redirect_cpu_s())
        assert onnode < sidecar / 5


class TestObservability:
    def test_flow_records_labeled_per_pod(self, sim, proxy):
        with use_telemetry(Telemetry(enabled=True)) as telemetry:
            sim.process(proxy.process_message("pod-1", "svc-a", 100, 900))
            sim.process(proxy.process_message("pod-2", "svc-b", 50, 50))
            sim.run()
        assert telemetry.value("onnode_bytes_total",
                               node="worker1", pod="pod-1") == 1000
        assert telemetry.value("onnode_bytes_total",
                               node="worker1", pod="pod-2") == 100

    def test_messages_counted_per_service(self, sim, proxy):
        with use_telemetry(Telemetry(enabled=True)) as telemetry:
            sim.process(proxy.process_message("pod-1", "svc-a", 10, 10))
            sim.run()
        assert telemetry.value("onnode_messages_total",
                               node="worker1", service="svc-a") == 1


class TestHandshakeWork:
    def test_handshake_charges_setup_costs(self, sim, proxy):
        done = proxy.handshake_work()
        sim.run()
        assert done.processed
        expected = (DEFAULT_COSTS.handshake_base_s
                    + DEFAULT_COSTS.connection_setup_s)
        assert proxy.tier.cpu.busy_time() == pytest.approx(expected)
