"""Parallel sweep executor: map independent experiment points over cores.

Every paper exhibit is a sweep of independent :class:`Simulator` runs
(RPS grids, seed sweeps, mesh variants). Each point builds its own
seeded simulator, so points are embarrassingly parallel *and* fully
deterministic: the executor only changes **where** a point runs, never
its inputs, and results always come back in point order. Same seed and
grid therefore produce byte-identical results at ``jobs=1`` and
``jobs=N``.

Exhibit code does not thread an executor through every call — it maps
through the *ambient* executor::

    from repro.runtime import sweep_imap
    for rps, point_run in zip(grid, sweep_imap(run_point, points)):
        ...

Testbed load runs map ``experiments.testbed.run_point`` over
``TestbedPoint`` values: one frozen point type and one stateless engine
for every closed-loop, open-loop and short-flow run.

The default ambient executor is serial (zero overhead, lazy ``imap`` so
early-exit sweeps stop computing). ``python -m repro.experiments
--jobs N`` installs a pooled one around the run.

Point functions must be module-level (picklable) and point specs must be
picklable values; both travel to ``multiprocessing`` workers.

While the ambient :class:`~repro.obs.Telemetry` is enabled (``--report``),
a pooled point runs under a fresh registry of its own and returns it
with its result; the parent merges it in point order, so the report's
telemetry holds every point's samples at any ``--jobs``.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Optional

from ..obs.runtime import get_telemetry, use_telemetry
from ..obs.telemetry import Telemetry

__all__ = [
    "SweepExecutor",
    "SweepPointError",
    "default_jobs",
    "resolve_jobs",
    "set_executor",
    "sweep_imap",
    "sweep_map",
    "use_executor",
]


class SweepPointError(RuntimeError):
    """A sweep point raised in a pool worker.

    ``multiprocessing`` re-raises worker exceptions in the parent with
    the worker-side traceback rendered as text but with no indication of
    *which* point failed — for a 200-point grid that makes "crash in
    point 37" undebuggable. The pooled path therefore wraps the point
    function and re-raises failures as this type, whose message carries
    the point's index and ``repr`` (the original exception is chained as
    ``__cause__`` worker-side and echoed in the message, which survives
    pickling even when the cause does not).
    """


class _PointCall:
    """Picklable wrapper running one ``(index, point)`` pair in a worker.

    With ``collect_telemetry`` set it returns ``(result, the point's
    Telemetry)``.
    """

    __slots__ = ("fn", "collect_telemetry")

    def __init__(self, fn: Callable[[Any], Any], collect_telemetry: bool):
        self.fn = fn
        self.collect_telemetry = collect_telemetry

    def __call__(self, indexed_point):
        index, point = indexed_point
        try:
            if not self.collect_telemetry:
                return self.fn(point)
            with use_telemetry(Telemetry()) as telemetry:
                return self.fn(point), telemetry
        except Exception as exc:
            name = getattr(self.fn, "__name__", None) or repr(self.fn)
            raise SweepPointError(
                f"sweep point {index} ({point!r}) failed in {name}: "
                f"{exc!r}") from exc


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` / "use every core" requests."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: int) -> int:
    """The worker count for a ``--jobs`` value (``0`` = every core);
    a non-int (bools included) or negative value raises ``ValueError``."""
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0:
        raise ValueError(f"jobs must be an int >= 0, got {jobs!r}")
    return jobs or default_jobs()


class SweepExecutor:
    """Maps a point function over a sweep grid, serially or on a pool.

    ``jobs=1`` (the default) runs inline and lazily. ``jobs>1`` runs on
    a lazily created ``multiprocessing`` pool (``fork`` start method
    where available — workers inherit the imported package) and keeps
    result order identical to point order. Use as a context manager or
    call :meth:`close` to reap the pool.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = resolve_jobs(jobs)
        self._pool = None

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._pool = context.Pool(self.jobs)
        return self._pool

    def close(self) -> None:
        """Terminate the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- mapping -----------------------------------------------------------
    def imap(self, fn: Callable[[Any], Any],
             points: Iterable[Any]) -> Iterator[Any]:
        """Yield ``fn(point)`` for each point, **in point order**.

        Serial executors evaluate lazily, so consumers may stop early
        (e.g. a knee search past the latency spike) without paying for
        the rest of the grid. Pooled executors evaluate eagerly in the
        background; abandoning the iterator abandons the extra results,
        not the determinism of the ones consumed.
        """
        points = list(points)
        if self.jobs == 1 or len(points) <= 1:
            return (fn(point) for point in points)
        telemetry = get_telemetry()
        results = self._ensure_pool().imap(
            _PointCall(fn, telemetry.enabled), list(enumerate(points)))
        return _merged(results, telemetry) if telemetry.enabled else results

    def map(self, fn: Callable[[Any], Any],
            points: Iterable[Any]) -> List[Any]:
        """``list(imap(...))`` — the whole sweep, in point order."""
        return list(self.imap(fn, points))


def _merged(results: Iterator, telemetry: Telemetry) -> Iterator[Any]:
    """Unwrap ``(result, point telemetry)`` pairs, merging each point's
    samples into ``telemetry`` as its result is consumed."""
    for result, point_telemetry in results:
        telemetry.merge(point_telemetry)
        yield result


#: The ambient executor exhibit code maps through (serial by default).
_executor = SweepExecutor(jobs=1)


def set_executor(executor: SweepExecutor) -> SweepExecutor:
    """Install ``executor`` as ambient; returns the previous one."""
    global _executor
    previous, _executor = _executor, executor
    return previous


@contextmanager
def use_executor(jobs: int = 1,
                 executor: Optional[SweepExecutor] = None
                 ) -> Iterator[SweepExecutor]:
    """Scope an executor over a ``with`` block (and reap its pool)."""
    owned = executor is None
    installed = SweepExecutor(jobs=jobs) if owned else executor
    previous = set_executor(installed)
    try:
        yield installed
    finally:
        set_executor(previous)
        if owned:
            installed.close()


def sweep_map(fn: Callable[[Any], Any], points: Iterable[Any]) -> List[Any]:
    """Map ``fn`` over ``points`` on the ambient executor, in order."""
    return _executor.map(fn, points)


def sweep_imap(fn: Callable[[Any], Any],
               points: Iterable[Any]) -> Iterator[Any]:
    """Ordered, possibly lazy iterator form of :func:`sweep_map`."""
    return _executor.imap(fn, points)
