"""Asymmetric-crypto engines: plain software and batched AVX-512/QAT.

All engines share one interface — :meth:`submit` returns an event that
fires when one asymmetric operation completes — so the mTLS handshake,
the on-node proxy, and the remote key server can swap them freely.

The batched engine reproduces the paper's Appendix C finding (Fig 25):
AVX-512 processes 8 operations per batch and waits up to a configurable
timeout (minimum 1 ms) for the batch to fill, so with fewer than 8
concurrent new connections, operations eat the flush timeout and
performance drops below plain software on the same CPU.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs.runtime import get_telemetry
from ..simcore import CpuResource, Event, Interrupt, Simulator
from .primitives import CryptoCosts, DEFAULT_CRYPTO_COSTS

__all__ = ["SoftwareAsymEngine", "BatchedAccelerator"]


class SoftwareAsymEngine:
    """Plain-CPU asymmetric crypto (the no-offloading fallback)."""

    def __init__(self, sim: Simulator, costs: CryptoCosts = DEFAULT_CRYPTO_COSTS,
                 new_cpu: bool = False, cpu: Optional[CpuResource] = None):
        self.sim = sim
        self.costs = costs
        self.new_cpu = new_cpu
        self.cpu = cpu
        self.operations = 0

    @property
    def op_cost_s(self) -> float:
        return self.costs.asym_software_s(self.new_cpu)

    def submit(self) -> Event:
        """One asymmetric operation; fires when the computation ends."""
        return self.sim.process(self._run(), name="sw-asym")

    def _run(self):
        if self.cpu is not None:
            yield from self.cpu.execute(self.op_cost_s)
        else:
            yield self.sim.timeout(self.op_cost_s)
        self.operations += 1
        get_telemetry().inc("crypto_asym_ops_total", engine="software")
        return self.sim.now


class BatchedAccelerator:
    """AVX-512-style batch engine: N-wide batches, minimum flush timeout.

    Operations queue until either ``batch_size`` are pending (immediate
    flush) or ``flush_timeout_s`` elapses since the oldest queued op.
    A full batch completes in one accelerated-op time regardless of fill.
    """

    def __init__(self, sim: Simulator, costs: CryptoCosts = DEFAULT_CRYPTO_COSTS,
                 batch_size: int = 8, flush_timeout_s: float = 1e-3,
                 cpu: Optional[CpuResource] = None, name: str = "avx512"):
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        if flush_timeout_s < 1e-3:
            # The paper: "the wait time is configurable with a minimum
            # threshold of 1 ms".
            raise ValueError("flush timeout below the 1 ms hardware minimum")
        self.sim = sim
        self.costs = costs
        self.batch_size = batch_size
        self.flush_timeout_s = flush_timeout_s
        self.cpu = cpu
        self.name = name
        self._pending: List[Event] = []
        self._timer = None
        self.operations = 0
        self.batches = 0
        self.full_batches = 0

    def submit(self) -> Event:
        """Queue one asymmetric op; fires when its batch completes."""
        done = self.sim.event()
        self._pending.append(done)
        if len(self._pending) >= self.batch_size:
            self._flush()
        elif len(self._pending) == 1:
            self._timer = self.sim.process(self._flush_timer(), name="flush")
        return done

    def _flush_timer(self):
        try:
            yield self.sim.timeout(self.flush_timeout_s)
        except Interrupt:
            return
        self._timer = None
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        if self._timer is not None and self._timer.is_alive:
            self._timer.interrupt("flushing")
        self._timer = None
        batch = self._pending[:self.batch_size]
        del self._pending[:len(batch)]
        self.batches += 1
        if len(batch) == self.batch_size:
            self.full_batches += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc("crypto_batches_total", engine=self.name,
                          full=str(len(batch) == self.batch_size).lower())
            telemetry.observe("crypto_batch_fill", len(batch),
                              buckets=tuple(range(1, self.batch_size + 1)),
                              engine=self.name)
        self.sim.process(self._process_batch(batch), name="asym-batch")
        if self._pending:
            # Left-over ops start a fresh wait window.
            if len(self._pending) >= self.batch_size:
                self._flush()
            else:
                self._timer = self.sim.process(self._flush_timer(),
                                               name="flush")

    def _process_batch(self, batch: List[Event]):
        if self.cpu is not None:
            yield from self.cpu.execute(self.costs.asym_accelerated_s)
        else:
            yield self.sim.timeout(self.costs.asym_accelerated_s)
        self.operations += len(batch)
        get_telemetry().inc("crypto_asym_ops_total", amount=len(batch),
                            engine=self.name)
        for done in batch:
            done.succeed(self.sim.now)

    @property
    def fill_ratio(self) -> float:
        """Average batch occupancy (1.0 = always full)."""
        if self.batches == 0:
            return 0.0
        return self.operations / (self.batches * self.batch_size)
