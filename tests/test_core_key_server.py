"""Tests for the remote key server and its security properties."""

import pytest

from repro.core import (
    AccessDenied,
    FallbackEngine,
    KeyServer,
    KeyServerConfig,
    KeyServerFleet,
    RemoteKeyEngine,
)
from repro.crypto import SoftwareAsymEngine
from repro.simcore import Simulator


@pytest.fixture
def sim():
    return Simulator(0)


def serve_one(sim, server, requester="node1", identity="tenant1"):
    server.store_private_key(identity, "secret")
    token = server.establish_channel(requester)
    done = server.serve(requester, token, identity)
    sim.run()
    return done


class TestKeyServerSecurity:
    def test_unverified_requester_denied(self, sim):
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        with pytest.raises(AccessDenied):
            server.serve("stranger", "bogus-token", "id")
        assert server.requests_denied == 1

    def test_wrong_token_denied(self, sim):
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        server.establish_channel("node1")
        with pytest.raises(AccessDenied):
            server.serve("node1", "forged", "id")

    def test_missing_key_denied(self, sim):
        server = KeyServer(sim, "az1")
        token = server.establish_channel("node1")
        with pytest.raises(AccessDenied):
            server.serve("node1", token, "unknown-identity")

    def test_keys_never_stored_plaintext(self, sim):
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "super-secret-hex")
        blobs = list(server._vault.values())
        assert all(b"super-secret-hex" not in blob for blob in blobs)

    def test_restart_flushes_keys(self, sim):
        """Anti-theft property: keys are memory-only (§4.1.3)."""
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        server.restart()
        assert not server.has_key("id")

    def test_restart_invalidates_channels(self, sim):
        server = KeyServer(sim, "az1")
        token = server.establish_channel("node1")
        server.store_private_key("id", "s")
        server.restart()
        server.store_private_key("id", "s")
        with pytest.raises(AccessDenied):
            server.serve("node1", token, "id")

    def test_valid_request_served(self, sim):
        server = KeyServer(sim, "az1")
        done = serve_one(sim, server)
        assert done.triggered
        assert server.requests_served == 1


class TestRemoteKeyEngine:
    def test_completion_includes_rtt_and_rpc(self, sim):
        config = KeyServerConfig()
        server = KeyServer(sim, "az1", config=config)
        server.store_private_key("id", "secret")
        engine = RemoteKeyEngine(sim, server, "node1", "id")
        done = engine.submit()
        sim.run()
        minimum = config.network_rtt_s + config.rpc_overhead_s
        assert done.value > minimum

    def test_extra_rtt_for_keyless(self, sim):
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        near = RemoteKeyEngine(sim, server, "n", "id")
        server2 = KeyServer(sim, "az1", name="ks2")
        server2.store_private_key("id", "secret")
        far = RemoteKeyEngine(sim, server2, "n", "id", extra_rtt_s=4e-3)
        done_near = near.submit()
        done_far = far.submit()
        sim.run()
        assert done_far.value - done_near.value == pytest.approx(
            4e-3, rel=0.2)

    def test_solitary_op_agenda_entries(self, sim):
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        engine = RemoteKeyEngine(sim, server, "node1", "id")
        pushed = []

        def waiter():
            before = sim._sequence
            value = yield engine.submit()
            pushed.append((sim._sequence - before, value))

        sim.process(waiter())
        sim.run()
        # The arrival, the batcher's timer arm, its timer, the batch
        # completion, the server's op and the reply: no process.
        assert pushed == [(6, pytest.approx(2.55e-3))]

    def test_server_down_on_arrival_fails_the_op(self, sim):
        """A key server that goes down while the RPC is in flight fails
        the op, and the requester sees the server's error."""
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        engine = RemoteKeyEngine(sim, server, "node1", "id")
        caught = []

        def requester():
            try:
                yield engine.submit()
            except RuntimeError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(requester())
        server.healthy = False
        sim.run()
        assert caught == [(server.config.network_rtt_s / 2,
                           "keyserver-az1 is down")]
        assert engine.operations == 0

    def test_channel_established_on_creation(self, sim):
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        engine = RemoteKeyEngine(sim, server, "node1", "id")
        assert server.verify_channel("node1", engine.token)


class TestFallbackEngine:
    def test_uses_primary_when_healthy(self, sim):
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        primary = RemoteKeyEngine(sim, server, "n", "id")
        fallback = SoftwareAsymEngine(sim, new_cpu=False)
        engine = FallbackEngine(primary, fallback)
        engine.submit()
        sim.run()
        assert engine.fallbacks_used == 0
        assert primary.operations == 1

    def test_falls_back_when_server_down(self, sim):
        """Appendix A: key-server failure falls back to local software
        crypto so handshakes keep completing."""
        server = KeyServer(sim, "az1")
        server.store_private_key("id", "secret")
        primary = RemoteKeyEngine(sim, server, "n", "id")
        fallback = SoftwareAsymEngine(sim, new_cpu=False)
        engine = FallbackEngine(primary, fallback)
        server.healthy = False
        done = engine.submit()
        sim.run()
        assert engine.fallbacks_used == 1
        assert done.triggered


class TestKeyServerFleet:
    def test_per_az_deployment(self, sim):
        fleet = KeyServerFleet(sim)
        fleet.deploy("az1")
        fleet.deploy("az2", hardware_accelerated=False)
        assert fleet.server_in("az1").hardware_accelerated
        assert not fleet.server_in("az2").hardware_accelerated

    def test_duplicate_az_rejected(self, sim):
        fleet = KeyServerFleet(sim)
        fleet.deploy("az1")
        with pytest.raises(ValueError):
            fleet.deploy("az1")

    def test_engine_for_local_az(self, sim):
        fleet = KeyServerFleet(sim)
        server = fleet.deploy("az1")
        server.store_private_key("id", "secret")
        engine = fleet.engine_for("node1", "id", "az1")
        assert engine.server is server

    def test_engine_for_unknown_az_raises(self, sim):
        with pytest.raises(KeyError):
            KeyServerFleet(sim).engine_for("n", "id", "az9")

    def test_keyless_tenant_uses_own_server(self, sim):
        """Appendix B: financial customers host the key server
        themselves; the cloud never holds the private key."""
        fleet = KeyServerFleet(sim)
        fleet.deploy("az1")
        onprem = fleet.deploy_keyless("bank", extra_rtt_s=6e-3)
        onprem.store_private_key("id", "secret")
        engine = fleet.engine_for("n", "id", "az1", tenant="bank",
                                  keyless=True)
        assert engine.server is onprem
        assert engine.extra_rtt_s == 6e-3
        # The shared in-AZ server never saw the key.
        assert not fleet.server_in("az1").has_key("id")

    def test_keyless_unknown_tenant_raises(self, sim):
        fleet = KeyServerFleet(sim)
        with pytest.raises(KeyError):
            fleet.engine_for("n", "id", "az1", tenant="ghost", keyless=True)

    def test_software_az_still_serves(self, sim):
        """<5% of AZs lack acceleration; they serve via software (§4.1.3)."""
        fleet = KeyServerFleet(sim)
        server = fleet.deploy("az-old", hardware_accelerated=False)
        done = serve_one(sim, server)
        assert done.triggered
