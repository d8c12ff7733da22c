"""Host dataplane cost models: kernel stack, iptables, eBPF, Nagle.

These models price the traffic-redirection step of each mesh
architecture. They are analytic (per-message costs and aggregation
factors) so they can be used both standalone (Figs 21/22/29/30) and
inside the per-request DES paths (Figs 10–13).
"""

from .costs import KernelCosts, PathCost
from .nagle import NagleConfig, batch_factor
from .redirection import EbpfRedirect, IptablesRedirect

__all__ = [
    "EbpfRedirect",
    "IptablesRedirect",
    "KernelCosts",
    "NagleConfig",
    "PathCost",
    "batch_factor",
]
