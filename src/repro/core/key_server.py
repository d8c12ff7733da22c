"""The dedicated key server: remote asymmetric-crypto offload (§4.1.3).

On-node proxies and gateway replicas send their handshake-time
asymmetric operations to a shared, per-AZ key server over a
pre-established encrypted channel (no per-request TLS handshake). The
key server:

* batches operations through hardware acceleration — and because it
  serves a massive number of services, its batches are always full,
  avoiding the AVX-512 under-fill penalty (Fig 25);
* stores tenant private keys only in encrypted form, in memory —
  flushed on restart, decrypted transiently per verified request;
* returns the derived *symmetric* key; subsequent traffic crypto stays
  local at the requester.

Keyless mode (Appendix B): a security-sensitive tenant hosts the key
server in its own premises, so the cloud never holds the private key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from ..crypto import BatchedAccelerator, CryptoCosts, DEFAULT_CRYPTO_COSTS
from ..crypto.accelerator import SoftwareAsymEngine
from ..simcore import Event, Simulator

__all__ = ["KeyServerConfig", "KeyServer", "RemoteKeyEngine",
           "FallbackEngine", "KeyServerFleet", "AccessDenied"]


class AccessDenied(PermissionError):
    """Requester failed channel verification."""


@dataclass(frozen=True)
class KeyServerConfig:
    """Deployment parameters of one key server."""

    #: Round trip between a requester and its in-AZ key server. The
    #: paper measures remote completion ≈ 1.7 ms flat (Fig 23): a 1.0 ms
    #: overlay RTT + a full-batch op (0.25 ms + ~0.15 ms fill wait) +
    #: 0.3 ms of RPC/channel work.
    network_rtt_s: float = 1.0e-3
    #: Marshalling + pre-established-channel symmetric crypto per RPC.
    rpc_overhead_s: float = 0.3e-3
    batch_size: int = 8
    flush_timeout_s: float = 1e-3


class KeyServer:
    """One key-server instance (per AZ, or tenant-hosted for keyless)."""

    def __init__(self, sim: Simulator, az: str,
                 costs: CryptoCosts = DEFAULT_CRYPTO_COSTS,
                 config: KeyServerConfig = KeyServerConfig(),
                 hardware_accelerated: bool = True,
                 name: str = ""):
        self.sim = sim
        self.az = az
        self.config = config
        self.name = name or f"keyserver-{az}"
        self.hardware_accelerated = hardware_accelerated
        self.healthy = True
        if hardware_accelerated:
            self._engine = BatchedAccelerator(
                sim, costs, batch_size=config.batch_size,
                flush_timeout_s=config.flush_timeout_s, name=self.name)
        else:
            # <5 % of AZs lack QAT/AVX-512 CPUs (§4.1.3): software path.
            self._engine = SoftwareAsymEngine(sim, costs, new_cpu=False)
        #: identity → encrypted private-key blob (never plaintext).
        self._vault: Dict[str, bytes] = {}
        #: Channel tokens of verified requesters.
        self._channels: Dict[str, str] = {}
        self.requests_served = 0
        self.requests_denied = 0

    # -- key management -------------------------------------------------------
    @staticmethod
    def _seal(identity: str, secret_hex: str) -> bytes:
        """At-rest encryption of a private key (keyed digest stand-in)."""
        return hashlib.sha256(f"seal:{identity}:{secret_hex}".encode()).digest()

    def store_private_key(self, identity: str, secret_hex: str) -> None:
        self._vault[identity] = self._seal(identity, secret_hex)

    def has_key(self, identity: str) -> bool:
        return identity in self._vault

    def restart(self) -> None:
        """Power cycle: in-memory keys are flushed (anti-theft, §4.1.3)."""
        self._vault.clear()
        self._channels.clear()

    # -- channels ---------------------------------------------------------------
    def establish_channel(self, requester: str) -> str:
        """Pre-establish the encrypted requester channel; returns token."""
        token = hashlib.sha256(
            f"chan:{self.name}:{requester}".encode()).hexdigest()
        self._channels[requester] = token
        return token

    def verify_channel(self, requester: str, token: str) -> bool:
        return self._channels.get(requester) == token

    # -- crypto service ------------------------------------------------------------
    def serve(self, requester: str, token: str, identity: str) -> Event:
        """Perform one asymmetric op for a verified requester.

        The event fires when the op leaves the accelerator; a batched
        engine hands every op of one batch the same event. Network and
        RPC costs are the :class:`RemoteKeyEngine`'s business. The
        transient plaintext key exists only within the op (not stored).
        """
        if not self.healthy:
            raise RuntimeError(f"{self.name} is down")
        if not self.verify_channel(requester, token):
            self.requests_denied += 1
            raise AccessDenied(f"requester {requester!r} has no channel")
        if identity not in self._vault:
            self.requests_denied += 1
            raise AccessDenied(f"no key stored for {identity!r}")
        self.requests_served += 1
        return self._engine.submit()


class RemoteKeyEngine:
    """Asym-engine adapter: RPC to a key server over the shared channel.

    Implements the same ``submit()`` interface as the local engines, so
    the mTLS handshake can use it transparently.
    """

    def __init__(self, sim: Simulator, server: KeyServer, requester: str,
                 identity: str, extra_rtt_s: float = 0.0):
        self.sim = sim
        self.server = server
        self.requester = requester
        self.identity = identity
        #: Additional round trip for out-of-AZ/keyless deployments.
        self.extra_rtt_s = extra_rtt_s
        self.token = server.establish_channel(requester)
        self.operations = 0

    @property
    def healthy(self) -> bool:
        return self.server.healthy

    def submit(self) -> Event:
        """One remote op; fires with its completion time.

        Three agenda callbacks, no process: the request reaches the
        server after half the RTT, the server's op fires, and the reply
        is scheduled half the RTT plus the RPC overhead later. Ops that
        share a batch share its event; ``_arrive`` subscribes in the
        step it submits, so their replies go out in submit order. If
        the server refuses the op (down, or the channel fails
        verification), the event fails with the server's error.
        """
        done = self.sim.event()
        rtt = self.server.config.network_rtt_s + self.extra_rtt_s
        self.sim.call_later(rtt / 2.0, self._arrive, done)
        return done

    def _arrive(self, done: Event) -> None:
        try:
            served = self.server.serve(self.requester, self.token,
                                       self.identity)
        except (RuntimeError, AccessDenied) as exc:
            done.fail(exc)
            return
        served.add_callback(partial(self._reply, done))

    def _reply(self, done: Event, _served: Event) -> None:
        config = self.server.config
        delay = (config.network_rtt_s + self.extra_rtt_s) / 2.0 \
            + config.rpc_overhead_s
        self.operations += 1
        done.succeed(self.sim.now + delay, delay=delay)


class FallbackEngine:
    """Primary engine with software fallback (Appendix A).

    If the in-AZ key server fails, asymmetric crypto falls back to the
    local CPU so handshakes keep completing (slower, but available).
    """

    def __init__(self, primary, fallback):
        self.primary = primary
        self.fallback = fallback
        self.fallbacks_used = 0

    def submit(self) -> Event:
        if getattr(self.primary, "healthy", True):
            return self.primary.submit()
        self.fallbacks_used += 1
        return self.fallback.submit()


class KeyServerFleet:
    """Per-AZ key servers plus tenant-hosted keyless servers."""

    def __init__(self, sim: Simulator,
                 costs: CryptoCosts = DEFAULT_CRYPTO_COSTS,
                 config: KeyServerConfig = KeyServerConfig()):
        self.sim = sim
        self.costs = costs
        self.config = config
        self._by_az: Dict[str, KeyServer] = {}
        #: tenant → (its on-prem key server, the extra RTT to reach it).
        self._keyless: Dict[str, Tuple[KeyServer, float]] = {}

    def deploy(self, az: str, hardware_accelerated: bool = True) -> KeyServer:
        if az in self._by_az:
            raise ValueError(f"key server already deployed in {az}")
        server = KeyServer(self.sim, az, self.costs, self.config,
                           hardware_accelerated=hardware_accelerated)
        self._by_az[az] = server
        return server

    def deploy_keyless(self, tenant: str,
                       extra_rtt_s: float = 4e-3) -> KeyServer:
        """Tenant-hosted key server (on-prem: extra cross-site RTT)."""
        server = KeyServer(self.sim, az=f"onprem-{tenant}", costs=self.costs,
                           config=self.config, name=f"keyserver-{tenant}")
        self._keyless[tenant] = (server, extra_rtt_s)
        return server

    def server_in(self, az: str) -> Optional[KeyServer]:
        return self._by_az.get(az)

    def engine_for(self, requester: str, identity: str, az: str,
                   tenant: Optional[str] = None,
                   keyless: bool = False) -> RemoteKeyEngine:
        """Build the right remote engine for a requester."""
        if keyless:
            if tenant is None or tenant not in self._keyless:
                raise KeyError(f"tenant {tenant!r} has no keyless server")
            server, extra_rtt_s = self._keyless[tenant]
            return RemoteKeyEngine(self.sim, server, requester, identity,
                                   extra_rtt_s=extra_rtt_s)
        server = self._by_az.get(az)
        if server is None:
            raise KeyError(f"no key server deployed in AZ {az!r}")
        return RemoteKeyEngine(self.sim, server, requester, identity)
