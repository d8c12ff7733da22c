"""Canal's minimal on-node proxy (§4.1).

The functional-equivalence analysis keeps exactly three things local:

* traffic redirection into the mesh — via eBPF sockmap with Nagle
  re-implemented (not iptables);
* the local half of zero-trust — mTLS origination with certificates
  that never leave the node, asymmetric crypto offloaded to the key
  server;
* L4 observability — per-pod traffic labeling, counted as the
  ``onnode_bytes_total{pod}`` telemetry counter (Appendix A: the
  on-node proxy must label traffic per pod, which a per-pod sidecar
  got for free).

Everything else (traffic control, L7 policy, L7 observability) lives in
the remote gateway.
"""

from __future__ import annotations

from ..mesh.costs import DEFAULT_COSTS, MeshCostModel
from ..mesh.proxy import ProxyTier
from ..obs.runtime import get_telemetry
from ..simcore import Event, Simulator

__all__ = ["OnNodeProxy"]


class OnNodeProxy:
    """The lightweight per-node proxy of the Canal architecture."""

    def __init__(self, sim: Simulator, node_name: str, az: str,
                 cores: int = 1, costs: MeshCostModel = DEFAULT_COSTS):
        self.sim = sim
        self.node_name = node_name
        self.az = az
        self.costs = costs
        self.tier = ProxyTier(sim, cores=cores, name=f"onnode@{node_name}")
        #: Asym engine installed by CanalMesh (remote/local/software).
        self.asym_engine = None
        #: eBPF hand-off plus L4 work: the message-independent cost.
        self._fixed_cost_s = (costs.ebpf_redirect_cpu_s()
                              + costs.canal_onnode_l4_s)

    def data_path_cost_s(self, nbytes: int) -> float:
        """CPU of moving one message through the on-node proxy."""
        return self._fixed_cost_s + self.costs.symmetric_cost(nbytes)

    def process_message(self, pod: str, service: str, bytes_out: int,
                        bytes_in: int, trace=None, parent_id: int = 1,
                        after_s: float = 0.0):
        """Process generator: redirect + L4 + crypto + observability,
        then ``after_s`` of fixed delay in the same wait; returns the
        time the pass ended.

        With a ``trace`` handle, the pass becomes an ``l4`` span under
        ``parent_id``, carrying the per-pod byte labels.
        """
        cost = self.data_path_cost_s(bytes_out + bytes_in)
        end = yield self.tier.work(cost, trace=trace, parent_id=parent_id,
                                   name="onnode-l4", layer="l4", pod=pod,
                                   bytes_out=bytes_out, bytes_in=bytes_in,
                                   after_s=after_s)
        self.record_flow(pod, service, bytes_out, bytes_in)
        return end

    def record_flow(self, pod: str, service: str, bytes_out: int,
                    bytes_in: int) -> None:
        """Per-pod labeling for fine-grained statistics (Appendix A)."""
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc("onnode_messages_total", node=self.node_name,
                          service=service)
            telemetry.inc("onnode_bytes_total",
                          amount=bytes_out + bytes_in,
                          node=self.node_name, pod=pod)

    def handshake_work(self) -> Event:
        """The non-asymmetric part of connection setup (TCP accept + TLS
        record machinery + session install); returns the event its
        :meth:`ProxyTier.work` ends on."""
        return self.tier.work(self.costs.handshake_base_s
                              + self.costs.connection_setup_s)
