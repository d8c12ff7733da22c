"""Tests for certificates, crypto engines, and the mTLS handshake."""

import pytest

from repro.crypto import (
    BatchedAccelerator,
    CertificateAuthority,
    CryptoCosts,
    DEFAULT_CRYPTO_COSTS,
    PrivateKey,
    SoftwareAsymEngine,
    mtls_handshake,
)
from repro.simcore import CpuResource, Process, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


class TestCertificates:
    def setup_method(self):
        self.ca = CertificateAuthority("test-ca")

    def test_issue_and_verify(self):
        cert = self.ca.issue("spiffe://t1/pod", "t1", not_after=100.0)
        assert self.ca.verify(cert, now=50.0)

    def test_expired_rejected(self):
        cert = self.ca.issue("id", "t1", not_after=10.0)
        assert not self.ca.verify(cert, now=11.0)

    def test_wrong_issuer_rejected(self):
        other = CertificateAuthority("other-ca")
        cert = other.issue("id", "t1", not_after=100.0)
        assert not self.ca.verify(cert, now=0.0)

    def test_forged_signature_rejected(self):
        from dataclasses import replace
        cert = self.ca.issue("id", "t1", not_after=100.0)
        forged = replace(cert, identity="admin")
        assert not self.ca.verify(forged, now=0.0)

    def test_same_name_ca_different_seed_rejects(self):
        impostor = CertificateAuthority("test-ca", seed="other-secret")
        cert = impostor.issue("id", "t1", not_after=100.0)
        assert not self.ca.verify(cert, now=0.0)

    def test_private_key_deterministic(self):
        a = PrivateKey.generate("o", "seed")
        b = PrivateKey.generate("o", "seed")
        assert a.secret_hex == b.secret_hex

    def test_non_finite_expiry_rejected(self):
        """``now > nan`` is False: a NaN expiry would never expire."""
        for not_after in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not_after"):
                self.ca.issue("id", "t1", not_after)
            with pytest.raises(ValueError, match="not_after"):
                self.ca.reissue_all(not_after)
        assert self.ca.issued_count == 0

    def test_non_finite_clock_rejected(self):
        cert = self.ca.issue("id", "t1", not_after=10.0)
        for now in (float("nan"), float("-inf")):
            with pytest.raises(ValueError, match="now"):
                self.ca.verify(cert, now)

    def test_non_ascii_forged_signature_rejected(self):
        from dataclasses import replace
        cert = self.ca.issue("id", "t1", not_after=100.0)
        assert not self.ca.verify(replace(cert, signature="é" * 64), 0.0)

    def test_rotation_orphans_the_current_certificate(self):
        cert = self.ca.issue("id", "t1", not_after=100.0)
        assert self.ca.verify(cert, now=0.0)
        self.ca.rotate_secret()
        assert self.ca.issued_for("id") is cert
        assert not self.ca.verify(cert, now=0.0)

    def test_equal_field_copy_is_checked_by_signature(self):
        from dataclasses import replace
        cert = self.ca.issue("id", "t1", not_after=100.0)
        assert not self.ca.verify(replace(cert, signature="0" * 64), 0.0)
        assert self.ca.verify(replace(cert), 0.0)

    def test_reissued_certificates_verify(self):
        old = [self.ca.issue(name, "t1", not_after=100.0)
               for name in ("a", "b")]
        self.ca.rotate_secret()
        reissued = self.ca.reissue_all(not_after=200.0)
        assert sorted(reissued) == ["a", "b"]
        assert all(self.ca.verify(cert, now=150.0)
                   for cert in reissued.values())
        assert not any(self.ca.verify(cert, now=50.0) for cert in old)

    def test_workload_certificate_reused_until_expiry_or_rotation(self):
        cert = self.ca.workload_certificate("id", "t1", now=0.0, ttl_s=10.0)
        assert cert.not_after == 10.0
        assert self.ca.workload_certificate("id", "t1", 10.0, 10.0) is cert
        renewed = self.ca.workload_certificate("id", "t1", 10.5, 10.0)
        assert renewed is not cert and renewed.not_after == 20.5
        self.ca.rotate_secret()
        rotated = self.ca.workload_certificate("id", "t1", 11.0, 10.0)
        assert rotated is not renewed
        assert self.ca.verify(rotated, now=11.0)

    def test_issued_registry(self):
        self.ca.issue("id", "t1", not_after=1.0)
        assert self.ca.issued_count == 1
        self.ca.revoke("id")
        assert self.ca.issued_for("id") is None


class TestSoftwareAsymEngine:
    def test_old_cpu_slower_than_new(self, sim):
        old = SoftwareAsymEngine(sim, new_cpu=False)
        new = SoftwareAsymEngine(sim, new_cpu=True)
        assert old.op_cost_s > new.op_cost_s

    def test_completion_time(self, sim):
        engine = SoftwareAsymEngine(sim, new_cpu=False)
        done = engine.submit()
        sim.run()
        assert done.value == pytest.approx(
            DEFAULT_CRYPTO_COSTS.asym_software_old_cpu_s)

    def test_occupies_cpu_when_bound(self, sim):
        cpu = CpuResource(sim, cores=1)
        engine = SoftwareAsymEngine(sim, new_cpu=True, cpu=cpu)
        engine.submit()
        engine.submit()
        sim.run()
        # Two ops serialized on one core.
        assert sim.now == pytest.approx(2 * engine.op_cost_s)
        assert cpu.busy_time() == pytest.approx(2 * engine.op_cost_s)

    def test_unwatched_op_agenda_entries(self, sim):
        engine = SoftwareAsymEngine(sim, new_cpu=True)
        done = engine.submit()
        sim.run()
        # The start slot and the op's timeout; nothing waited, so the
        # op ends without an entry of its own.
        assert sim._sequence == 2
        assert done.processed and done.value == engine.op_cost_s
        assert engine.operations == 1

    def test_watched_op_agenda_entries(self, sim):
        cpu = CpuResource(sim, cores=1)
        engine = SoftwareAsymEngine(sim, new_cpu=True, cpu=cpu)
        done = engine.submit()
        seen = []
        done.add_callback(lambda event: seen.append((sim.now, event.value)))
        sim.run()
        # The start slot, the core's work and the op's end entry.
        assert sim._sequence == 3
        assert seen == [(engine.op_cost_s, engine.op_cost_s)]
        assert not isinstance(done, Process)


class TestBatchedAccelerator:
    def test_minimum_flush_timeout_enforced(self, sim):
        with pytest.raises(ValueError):
            BatchedAccelerator(sim, flush_timeout_s=0.5e-3)

    def test_single_op_waits_out_timeout(self, sim):
        accelerator = BatchedAccelerator(sim)
        done = accelerator.submit()
        sim.run()
        expected = (accelerator.flush_timeout_s
                    + DEFAULT_CRYPTO_COSTS.asym_accelerated_s)
        assert done.value == pytest.approx(expected)

    def test_full_batch_flushes_immediately(self, sim):
        accelerator = BatchedAccelerator(sim)
        events = [accelerator.submit() for _ in range(8)]
        sim.run()
        assert events[0].value == pytest.approx(
            DEFAULT_CRYPTO_COSTS.asym_accelerated_s)
        assert accelerator.full_batches == 1

    def test_overflow_spills_to_next_batch(self, sim):
        accelerator = BatchedAccelerator(sim)
        events = [accelerator.submit() for _ in range(9)]
        sim.run()
        assert accelerator.batches == 2
        # The ninth op waits for its own (timer-flushed) batch.
        assert events[8].value > events[0].value

    def test_fill_ratio(self, sim):
        accelerator = BatchedAccelerator(sim)
        for _ in range(8):
            accelerator.submit()
        sim.run()
        assert accelerator.fill_ratio == pytest.approx(1.0)

    def test_fig25_underfill_loses_to_software(self, sim):
        """Below 8 concurrent connections, batching is slower than plain
        software on the same (new) CPU."""
        accelerator = BatchedAccelerator(sim)
        done = accelerator.submit()
        sim.run()
        software = DEFAULT_CRYPTO_COSTS.asym_software_new_cpu_s
        assert done.value > software

    def test_batch_size_validated(self, sim):
        with pytest.raises(ValueError):
            BatchedAccelerator(sim, batch_size=0)

    def test_op_at_the_flush_deadline_joins_the_batch(self, sim):
        """The flush timer is armed one zero-delay step after the first
        submit, so an op whose wait was scheduled in that first step
        arrives ahead of the deadline's entry and joins the batch."""
        accelerator = BatchedAccelerator(sim)
        events = []

        def client():
            events.append(accelerator.submit())
            yield sim.timeout(accelerator.flush_timeout_s)
            events.append(accelerator.submit())

        sim.process(client())
        sim.run()
        assert accelerator.batches == 1
        assert accelerator.operations == 2
        expected = (accelerator.flush_timeout_s
                    + DEFAULT_CRYPTO_COSTS.asym_accelerated_s)
        assert [done.value for done in events] == [expected, expected]

    def test_full_batch_agenda_entries(self, sim):
        accelerator = BatchedAccelerator(sim)
        events = [accelerator.submit() for _ in range(8)]
        sim.run()
        # One timer arm (stale by the time it fires, so it pushes no
        # timer), one batch completion and one event the ops share.
        assert sim._sequence == 3
        assert [done.value for done in events] == [
            DEFAULT_CRYPTO_COSTS.asym_accelerated_s] * 8
        assert all(done is events[0] for done in events)

    def test_batch_waiters_wake_in_submit_order(self, sim):
        """The ops of one batch share an event, and waiters that yield
        it in the step they submit wake in submit order, each at the
        batch's completion time."""
        accelerator = BatchedAccelerator(sim)
        woken = []

        def client(name):
            value = yield accelerator.submit()
            woken.append((name, value, sim.now))

        for name in range(8):
            sim.process(client(name))
        sim.run()
        end = DEFAULT_CRYPTO_COSTS.asym_accelerated_s
        assert woken == [(name, end, end) for name in range(8)]

    def test_batch_on_a_cpu_frees_the_core_before_waking(self, sim):
        cpu = CpuResource(sim, cores=1)
        accelerator = BatchedAccelerator(sim, batch_size=2, cpu=cpu)
        seen = []

        def client():
            yield accelerator.submit()
            seen.append((sim.now, cpu.in_use))

        sim.process(client())
        sim.process(client())
        sim.run()
        end = DEFAULT_CRYPTO_COSTS.asym_accelerated_s
        assert seen == [(end, 0), (end, 0)]
        assert cpu.busy_time() == pytest.approx(end)
        assert accelerator.operations == 2 and accelerator.full_batches == 1

    def test_timer_flushed_batch_agenda_entries(self, sim):
        accelerator = BatchedAccelerator(sim)
        done = accelerator.submit()
        sim.run()
        # The timer arm, the timer, the batch completion and the op.
        assert sim._sequence == 4
        assert done.value == pytest.approx(1.25e-3)


class TestMtlsHandshake:
    def _run(self, sim, client_ok=True, rtt=1e-3):
        ca = CertificateAuthority("mesh")
        client = ca.issue("client", "t1", not_after=100.0)
        if not client_ok:
            other = CertificateAuthority("rogue")
            client = other.issue("client", "t1", not_after=100.0)
        server = ca.issue("server", "t1", not_after=100.0)
        engine_a = SoftwareAsymEngine(sim, new_cpu=True)
        engine_b = SoftwareAsymEngine(sim, new_cpu=True)
        process = sim.process(mtls_handshake(
            sim, ca, client, server, engine_a, engine_b, rtt_s=rtt))
        sim.run()
        return process.value

    def test_successful_handshake(self, sim):
        result = self._run(sim)
        assert result.ok
        assert result.session is not None

    def test_latency_includes_two_rtts_and_asym(self, sim):
        result = self._run(sim, rtt=1e-3)
        expected = 2e-3 + DEFAULT_CRYPTO_COSTS.asym_software_new_cpu_s
        assert result.latency_s == pytest.approx(expected)

    def test_rogue_client_rejected(self, sim):
        result = self._run(sim, client_ok=False)
        assert not result.ok
        assert "client" in result.failure_reason

    def test_session_prices_symmetric_crypto(self, sim):
        result = self._run(sim)
        cost = result.session.protect_cost(10_000)
        assert cost == pytest.approx(
            DEFAULT_CRYPTO_COSTS.symmetric_cost(10_000))
        assert result.session.bytes_protected == 10_000

    def test_symmetric_much_cheaper_than_asymmetric(self):
        costs = CryptoCosts()
        assert costs.symmetric_cost(1500) < costs.asym_accelerated_s / 10
