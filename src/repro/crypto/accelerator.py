"""Asymmetric-crypto engines: plain software and batched AVX-512/QAT.

All engines share one interface — :meth:`submit` returns an event that
fires when one asymmetric operation completes — so the mTLS handshake,
the on-node proxy, and the remote key server can swap them freely. The
batched engine returns the same event for every op of one batch.

The batched engine reproduces the paper's Appendix C finding (Fig 25):
AVX-512 processes 8 operations per batch and waits up to a configurable
timeout (minimum 1 ms) for the batch to fill, so with fewer than 8
concurrent new connections, operations eat the flush timeout and
performance drops below plain software on the same CPU.

Both engines run on agenda callbacks (``Simulator.call_later``), not
processes. The batcher's flush timer is cancelled by an epoch that
every flush bumps: a timer that fires under an older epoch does
nothing. A batch without a CPU completes through one callback; with a
CPU (the local engine) a zero-delay call puts it on
``CpuResource.run``, and it completes in a callback on that event,
which fires when the CPU work ends.

One batch, one event: all ops of a batch share the event ``submit``
returns, and a completion succeeds it once. Its waiters wake in the
order they registered on it. That is submit order as long as every
caller registers in the step it submits, as every caller does:
``RemoteKeyEngine._arrive`` adds its callback, ``all_of`` subscribes,
or a process yields the event, each right after ``submit`` returns.

The deadline-slot rule: the timer is armed through a zero-delay call
after the batch's first submit, not at the submit itself. Its deadline
entry is therefore pushed one zero-delay step later, so an op whose
own wait was scheduled in the submit's step and ends exactly at the
deadline still joins the batch (Fig 12's local mode does this). Arming
directly would flush such a batch one op short.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

from ..obs.runtime import get_telemetry
from ..simcore import CpuResource, Event, Simulator
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
        """One asymmetric operation; returns the event that fires with
        the completion time when the computation ends.

        No process: the op starts in a zero-delay slot, where a
        process's bootstrap entry would be, and ends in a callback on
        its CPU (or timeout) event. The returned event takes an agenda
        entry only if something waits on it by then
        (:meth:`Event.settle`), so the agenda is a process's.
        """
        done = self.sim.event()
        self.sim.call_later(0.0, self._start, done)
        return done

    def _start(self, done: Event) -> None:
        if self.cpu is not None:
            work = self.cpu.run(self.op_cost_s)
        else:
            work = self.sim.timeout(self.op_cost_s)
        work.callbacks.append(partial(self._finish, done))

    def _finish(self, done: Event, _work: Event) -> None:
        self.operations += 1
        get_telemetry().inc("crypto_asym_ops_total", engine="software")
        done.settle(self.sim.now)


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
        #: Ops in the open batch, which all wait on ``_batch``.
        self._pending = 0
        self._batch: Optional[Event] = None
        #: Bumped by every flush; a flush timer armed under an older
        #: epoch fires as a no-op.
        self._epoch = 0
        self.operations = 0
        self.batches = 0
        self.full_batches = 0

    def submit(self) -> Event:
        """Queue one asymmetric op; returns its batch's event, which
        fires with the completion time when the batch completes."""
        if self._pending == 0:
            self._batch = self.sim.event()
        batch = self._batch
        self._pending += 1
        if self._pending >= self.batch_size:
            self._flush()
        elif self._pending == 1:
            self.sim.call_later(0.0, self._arm, self._epoch)
        return batch

    def _arm(self, epoch: int) -> None:
        # One zero-delay step after the first submit: the deadline-slot
        # rule in the module docstring.
        if epoch == self._epoch:
            self.sim.call_later(self.flush_timeout_s, self._expire, epoch)

    def _expire(self, epoch: int) -> None:
        if epoch == self._epoch:
            self._flush()

    def _flush(self) -> None:
        self._epoch += 1
        size = self._pending
        batch = (self._batch, size)
        self._batch = None
        self._pending = 0
        full = size == self.batch_size
        self.batches += 1
        if full:
            self.full_batches += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.inc("crypto_batches_total", engine=self.name,
                          full=str(full).lower())
            telemetry.observe("crypto_batch_fill", size,
                              buckets=tuple(range(1, self.batch_size + 1)),
                              engine=self.name)
        if self.cpu is not None:
            self.sim.call_later(0.0, self._run_on_cpu, batch)
        else:
            self.sim.call_later(self.costs.asym_accelerated_s,
                                self._complete, batch)

    def _run_on_cpu(self, batch: Tuple[Event, int]) -> None:
        self.cpu.run(self.costs.asym_accelerated_s).callbacks.append(
            lambda _cpu_done: self._complete(batch))

    def _complete(self, batch: Tuple[Event, int]) -> None:
        done, size = batch
        self.operations += size
        get_telemetry().inc("crypto_asym_ops_total", amount=size,
                            engine=self.name)
        done.succeed(self.sim.now)

    @property
    def fill_ratio(self) -> float:
        """Average batch occupancy (1.0 = always full)."""
        if self.batches == 0:
            return 0.0
        return self.operations / (self.batches * self.batch_size)
