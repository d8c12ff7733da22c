"""The calibrated cost model shared by all three mesh architectures.

Every comparison figure (10–15, 22–30) prices its request paths from
this one table, so the architecture ratios are *derived* from the same
constants rather than hard-coded per figure.

Calibration rationale (see DESIGN.md §4 and EXPERIMENTS.md):

* Istio's sidecar pays an iptables redirect plus a full-featured Envoy
  L7 pass on each side of a request. The paper repeatedly observes that
  production sidecars carry "complex network and security
  configurations"; its own Figs 2/11 imply a per-pass cost an order of
  magnitude above an optimized single-purpose L7 engine.
* Ambient's ztunnel does L4 + mTLS (HBONE) per node; its waypoint is a
  lighter-config Envoy doing one L7 pass per request.
* Canal's on-node proxy does eBPF redirection, L4 accounting, and
  symmetric crypto only (asymmetric crypto is offloaded); its gateway
  replica runs Alibaba's optimized L7 engine, reflecting the years of
  gateway optimization the paper cites (Sailfish/LuoShen lineage).

With the defaults below and the §5.1 testbed layout, the model yields
light-load latency ratios of ≈ 1.7× / 1.2× (paper: 1.7× / 1.3×),
user-cluster CPU ratios of ≈ 15× / 4.6× (paper: 12–19× / 4.6–7.2×), and
saturation-throughput ratios of ≈ 7–9× / 1.8–2.2× (paper: 12.3× / 2.3×
— the model reproduces the ordering and a large gap; the full 12.3×
depends on Envoy implementation artifacts beyond a queueing model, see
EXPERIMENTS.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import inf, isfinite, log

from ..crypto.primitives import CryptoCosts, DEFAULT_CRYPTO_COSTS
from ..kernel.costs import KernelCosts

__all__ = ["MeshCostModel", "DEFAULT_COSTS", "sample_service_time"]


def sample_service_time(rng: random.Random, mean_s: float,
                        sigma: float) -> float:
    """Lognormal service time with the given *mean* and shape ``sigma``.

    ``sigma`` models processing-time variability: a full-featured Envoy
    with complex filter chains has heavy-tailed per-request costs (which
    is what makes its latency spike far below full utilization — Fig 2),
    while an optimized single-purpose engine is near-deterministic.
    Inputs both positive and finite (every request path) cost one chained
    comparison and one ``rng.lognormvariate``. Otherwise ``sigma=0``
    returns the mean exactly and a zero mean returns ``0.0``, neither
    drawing from ``rng``; a negative or non-finite ``mean_s`` or
    ``sigma`` raises ``ValueError`` naming it.
    """
    if 0.0 < mean_s < inf and 0.0 < sigma < inf:
        # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); solve for mu.
        return rng.lognormvariate(log(mean_s) - sigma * sigma / 2.0, sigma)
    if not isfinite(mean_s):
        raise ValueError(f"mean_s must be finite, got {mean_s!r}")
    if not isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if mean_s < 0:
        raise ValueError(f"mean_s must be >= 0, got {mean_s!r}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma!r}")
    if mean_s == 0:
        return 0.0
    return mean_s  # sigma == 0


@dataclass(frozen=True)
class MeshCostModel:
    """Per-request CPU costs (seconds) of each processing element."""

    kernel: KernelCosts = field(default_factory=KernelCosts)
    crypto: CryptoCosts = field(default_factory=lambda: DEFAULT_CRYPTO_COSTS)

    # -- L7 proxy passes ---------------------------------------------------
    #: Full-featured Envoy pass in an Istio sidecar (HTTP parse, route,
    #: telemetry, policy with production-sized config).
    istio_sidecar_l7_s: float = 850e-6
    #: Waypoint (Envoy with service-scoped config), one pass per request.
    ambient_waypoint_l7_s: float = 300e-6
    #: Canal gateway replica L7 pass (optimized multi-tenant engine).
    canal_gateway_l7_s: float = 80e-6

    # -- L4 elements ----------------------------------------------------------
    #: ztunnel per-node L4 + HBONE encapsulation work, per direction.
    ambient_ztunnel_l4_s: float = 100e-6
    #: Canal on-node proxy per direction: eBPF hand-off, L4 accounting,
    #: pod-level observability labeling (Appendix A's "additional work").
    canal_onnode_l4_s: float = 40e-6
    #: One-way hop between a user node and the in-AZ mesh gateway.
    #: Below the generic intra-AZ hop because the gateway sits on the
    #: provider's optimized overlay fast path (hairpin analysis,
    #: Appendix A: intra-AZ RTT "less than 1 ms").
    canal_gateway_hop_s: float = 150e-6

    # -- L7 service-time variability (lognormal sigma; see
    # ``sample_service_time``) -------------------------------------------------
    #: Production-config Envoy in a sidecar: heavy tail (Fig 2's early
    #: latency blow-up: 2× at 45 % utilization, spikes past 75 %).
    istio_l7_sigma: float = 1.3
    #: Waypoint Envoy with a service-scoped config: moderate tail.
    ambient_l7_sigma: float = 0.9
    #: Canal's optimized gateway engine: near-deterministic.
    canal_l7_sigma: float = 0.35

    # -- connection setup ------------------------------------------------------
    #: Non-asymmetric handshake work at a proxy terminating TLS (cert
    #: parse, session install); the asymmetric op is priced separately
    #: by the crypto engine in use.
    handshake_base_s: float = 300e-6
    #: Per-connection setup outside TLS (TCP accept, socket and proxy
    #: state) — dominates short-flow costs alongside the handshake.
    connection_setup_s: float = 700e-6
    #: Marshalling cost of one RPC to the remote key server.
    key_server_rpc_cpu_s: float = 10e-6

    # -- applications -------------------------------------------------------------
    #: Echo-style benchmark app service time (wrk-like testbed server).
    app_service_time_s: float = 1e-3

    def symmetric_cost(self, nbytes: int) -> float:
        """Symmetric-crypto CPU for one message of ``nbytes``."""
        return self.crypto.symmetric_cost(nbytes)

    def iptables_redirect_cpu_s(self) -> float:
        """Extra CPU of one iptables-redirected message hand-off."""
        kc = self.kernel
        return 2 * kc.stack_pass_s + 2 * kc.context_switch_s + kc.socket_op_s

    def ebpf_redirect_cpu_s(self) -> float:
        """Extra CPU of one eBPF sockmap hand-off."""
        return self.kernel.context_switch_s + self.kernel.socket_op_s


DEFAULT_COSTS = MeshCostModel()
