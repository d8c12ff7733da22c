"""Priority scheduler: bounded queue, worker pool, retries, drain.

The scheduler owns everything between "a spec passed validation" and "a
job reached a terminal state":

* **Admission** (:meth:`Scheduler.submit`) — coalesce with an identical
  in-flight job (dedupe), satisfy cache-clean work straight from the
  ``repro.runtime`` result cache without ever occupying a worker
  (the *cache fast path*), and otherwise enqueue — unless the bounded
  queue is full, which raises :class:`QueueFullError` (HTTP 429 +
  ``Retry-After``), or the server is draining, which raises
  :class:`DrainingError` (HTTP 503).
* **Dispatch** — ``workers`` threads pop the highest-priority queued
  job (FIFO within a priority) and fork one *non-daemonic* process per
  attempt (non-daemonic so sweep jobs can nest their own
  ``multiprocessing`` pool), tailing its progress pipe.
* **Robustness** — each attempt runs under a wall-clock timeout
  (terminate + fail on expiry); a worker that dies without reporting
  (crash, ``os._exit``, OOM) is retried up to ``max_retries`` times,
  then failed; a job-side exception fails immediately (it is
  deterministic — retrying would just re-raise).
* **Drain** (:meth:`drain`) — stop admitting, let queued and running
  jobs finish, then stop the worker threads. SIGTERM in
  ``python -m repro.serve`` lands here.

Locks order scheduler → store; the store never calls back into the
scheduler.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from .jobs import Job, JobSpec, JobSpecError, JobStore
from .metrics import ServeMetrics
from .runner import execute_job

__all__ = ["DrainingError", "QueueFullError", "Scheduler"]


class QueueFullError(RuntimeError):
    """Queue at capacity — reject with 429 + Retry-After."""

    def __init__(self, depth: int, retry_after_s: float):
        super().__init__(
            f"job queue full ({depth} queued); retry in {retry_after_s:g}s")
        self.depth = depth
        self.retry_after_s = retry_after_s


class DrainingError(RuntimeError):
    """Server is draining — reject new work with 503 + Retry-After."""

    def __init__(self, retry_after_s: float = 30.0):
        super().__init__("server is draining; not accepting new jobs")
        self.retry_after_s = retry_after_s


def _count(value: object, name: str, minimum: int) -> int:
    """Reject a non-int (bools included) or an int below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise ValueError(
            f"{name} must be an int >= {minimum}, got {value!r}")
    return value


def _seconds(value: object, name: str) -> float:
    """Reject a non-number, or one that is not finite and positive."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value < math.inf:
        raise ValueError(
            f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class Scheduler:
    """Bounded priority scheduler dispatching jobs to forked workers."""

    def __init__(self, store: JobStore,
                 metrics: Optional[ServeMetrics] = None,
                 workers: int = 2, queue_depth: int = 16,
                 default_timeout_s: float = 600.0, max_retries: int = 1,
                 retry_after_s: float = 1.0,
                 cache_dir: Optional[str] = None,
                 artifacts_root: Optional[str] = None,
                 allow_probes: bool = False):
        self.store = store
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.workers = _count(workers, "workers", 1)
        self.queue_depth = _count(queue_depth, "queue_depth", 1)
        self.default_timeout_s = _seconds(default_timeout_s,
                                          "default_timeout_s")
        self.max_retries = _count(max_retries, "max_retries", 0)
        self.retry_after_s = _seconds(retry_after_s, "retry_after_s")
        self.cache_dir = cache_dir
        self.allow_probes = allow_probes
        self._artifacts_root = artifacts_root

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._push_seq = 0
        self._active: Dict[Tuple, str] = {}  # dedupe key -> live job id
        self._procs: Dict[str, object] = {}  # job id -> attempt process
        self._running = 0
        self._draining = False
        self._stopping = False
        self._threads: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Launch the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return
            self._threads = [
                threading.Thread(target=self._worker_loop, daemon=True,
                                 name=f"serve-worker-{index}")
                for index in range(self.workers)]
        for thread in self._threads:
            thread.start()

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting; queued and running jobs keep going."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain and stop: block until queued + running jobs finish.

        Returns ``True`` on a clean drain, ``False`` if ``timeout``
        expired first (work is left untouched in that case).
        """
        self.begin_drain()
        deadline = (time.monotonic() + timeout) if timeout else None
        with self._cond:
            while self._heap or self._running:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining if remaining is not None else 1.0)
        self.stop()
        return True

    def stop(self, force: bool = False) -> None:
        """Stop worker threads; ``force`` also kills attempt processes."""
        with self._cond:
            self._stopping = True
            self._draining = True
            if force:
                for proc in list(self._procs.values()):
                    try:
                        proc.terminate()
                    except (OSError, ValueError):  # pragma: no cover
                        pass
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=10.0)

    # -- admission -----------------------------------------------------------
    def submit(self, spec: JobSpec) -> Tuple[Job, Dict[str, bool]]:
        """Admit one spec; returns ``(job, {"deduped":…, "cache_hit":…})``.

        Raises :class:`JobSpecError` (probes when disabled),
        :class:`DrainingError`, or :class:`QueueFullError`.
        """
        if spec.kind == "probe" and not self.allow_probes:
            raise JobSpecError(
                "probe jobs are disabled on this server "
                "(--allow-probe-jobs)")
        existing = self._deduped(spec)
        if existing is not None:
            return existing, {"deduped": True, "cache_hit": False}

        cached = self._cached_summaries(spec)
        if cached is not None:
            job = self._finish_from_cache(spec, cached)
            return job, {"deduped": False, "cache_hit": True}

        with self._cond:
            if self._draining or self._stopping:
                self.metrics.job_outcome("drain_rejected", spec.kind)
                raise DrainingError()
            if spec.dedupe:  # re-check under the admission lock
                live = self._live_job(spec)
                if live is not None:
                    self.metrics.job_outcome("deduped", spec.kind)
                    return live, {"deduped": True, "cache_hit": False}
            if len(self._heap) >= self.queue_depth:
                self.metrics.job_outcome("rejected", spec.kind)
                raise QueueFullError(len(self._heap), self.retry_after_s)
            job = self.store.create(spec)
            self._push_seq += 1
            heapq.heappush(self._heap,
                           (-spec.priority, self._push_seq, job.id))
            if spec.dedupe:
                self._active[spec.dedupe_key()] = job.id
            self.metrics.job_outcome("submitted", spec.kind)
            self.metrics.set_queue_depth(len(self._heap))
            # Event lands before notify so "queued" always precedes a
            # worker's "started" in the job's event log.
            self.store.append_event(job, "queued", {
                "priority": spec.priority, "queue_depth": len(self._heap)})
            self._cond.notify()
        return job, {"deduped": False, "cache_hit": False}

    def queued(self) -> int:
        with self._lock:
            return len(self._heap)

    def running(self) -> int:
        with self._lock:
            return self._running

    def artifacts_root(self) -> str:
        """The directory job artifacts land under (created lazily)."""
        with self._lock:
            if self._artifacts_root is None:
                self._artifacts_root = tempfile.mkdtemp(
                    prefix="repro-serve-artifacts-")
            os.makedirs(self._artifacts_root, exist_ok=True)
            return self._artifacts_root

    # -- admission helpers ---------------------------------------------------
    def _live_job(self, spec: JobSpec) -> Optional[Job]:
        """The non-terminal job already doing this work, if any.

        Callers hold ``self._cond``.
        """
        job_id = self._active.get(spec.dedupe_key())
        if job_id is None:
            return None
        job = self.store.get(job_id)
        if job is None or job.terminal:
            self._active.pop(spec.dedupe_key(), None)
            return None
        return job

    def _deduped(self, spec: JobSpec) -> Optional[Job]:
        if not spec.dedupe:
            return None
        with self._cond:
            live = self._live_job(spec)
            if live is not None:
                self.metrics.job_outcome("deduped", spec.kind)
            return live

    def _cached_summaries(self, spec: JobSpec
                          ) -> Optional[List[Dict[str, object]]]:
        """Result summaries when *every* exhibit is cache-warm, else None.

        Jobs that write artifacts must really execute, so ``report``
        disqualifies; so do ``use_cache=False`` and a fault plan (a
        chaos run's result is not the exhibit's clean result).
        """
        if (spec.kind == "probe" or spec.report or not spec.use_cache
                or spec.faults):
            return None
        from ..runtime import ResultCache
        cache = ResultCache(self.cache_dir)
        summaries: List[Dict[str, object]] = []
        for exp_id in spec.exhibits:
            try:
                result = cache.load(exp_id)
            except Exception:  # fingerprint trouble reads as a miss
                return None
            if result is None:
                return None
            summaries.append({
                "exp_id": exp_id,
                "title": getattr(result, "title", ""),
                "findings": {key: float(value) for key, value
                             in getattr(result, "findings", {}).items()},
                "notes": [str(n) for n in getattr(result, "notes", [])],
                "elapsed_s": 0.0,
                "cache_hit": True,
                "artifacts": {},
            })
        return summaries

    def _finish_from_cache(self, spec: JobSpec,
                           summaries: List[Dict[str, object]]) -> Job:
        """Complete a job at admission time, straight from the cache."""
        job = self.store.create(spec)
        self.store.append_event(job, "queued", {"priority": spec.priority,
                                                "cache_hit": True})
        self.store.mark_running(job, attempt=0)
        self.store.finish(job, "done", result=summaries, cache_hit=True)
        self.store.append_event(job, "done", {
            "runs": len(summaries), "cache_hit": True})
        self.metrics.job_outcome("submitted", spec.kind)
        self.metrics.job_outcome("cache_hit", spec.kind)
        self.metrics.job_outcome("done", spec.kind)
        self.metrics.job_wall_time(spec.kind, 0.0)
        return job

    # -- dispatch ------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._stopping:
                        return
                    if self._heap:
                        break
                    if self._draining:
                        return  # queue empty + draining = this worker done
                    self._cond.wait()
                _neg_priority, _seq, job_id = heapq.heappop(self._heap)
                self._running += 1
                self.metrics.set_queue_depth(len(self._heap))
                self.metrics.set_running(self._running)
            job = self.store.get(job_id)
            try:
                if job is not None:
                    self._run_job(job)
            finally:
                with self._cond:
                    self._running -= 1
                    if job is not None and job.spec.dedupe:
                        key = job.spec.dedupe_key()
                        if self._active.get(key) == job.id:
                            self._active.pop(key, None)
                    self.metrics.set_running(self._running)
                    self._cond.notify_all()  # wake drain waiters

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        timeout_s = spec.timeout_s if spec.timeout_s is not None \
            else self.default_timeout_s
        report_dir = os.path.join(self.artifacts_root(), job.id) \
            if spec.report else None
        started = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            self.store.mark_running(job, attempt)
            self.store.append_event(job, "started", {"attempt": attempt})
            outcome, payload = self._run_attempt(job, report_dir, timeout_s,
                                                 attempt)
            wall_s = time.monotonic() - started
            if outcome == "done":
                runs = payload.get("runs", [])
                artifacts = {}
                for summary in runs:
                    for name, filename in summary.get("artifacts",
                                                      {}).items():
                        artifacts[f"{summary['exp_id']}.{name}"] = \
                            f"/artifacts/{job.id}/{filename}"
                self.store.finish(job, "done", result=runs,
                                  artifacts=artifacts)
                self.store.append_event(job, "done", {
                    "runs": len(runs), "wall_s": wall_s,
                    "attempts": attempt})
                self.metrics.job_outcome("done", spec.kind)
                self.metrics.job_wall_time(spec.kind, wall_s)
                return
            if outcome == "error":
                error = payload.get("error", "job failed")
                self._fail(job, f"{error}", wall_s, attempt,
                           traceback=payload.get("traceback"))
                return
            if outcome == "timeout":
                self._fail(job, f"timed out after {timeout_s:g}s "
                                f"(attempt {attempt})", wall_s, attempt)
                return
            # outcome == "died": the one retriable failure mode.
            exitcode = payload.get("exitcode")
            if attempt <= self.max_retries:
                self.store.append_event(job, "retry", {
                    "attempt": attempt, "exitcode": exitcode})
                self.metrics.job_retried()
                continue
            self._fail(job, f"worker died (exitcode {exitcode}) on all "
                            f"{attempt} attempts", wall_s, attempt)
            return

    def _fail(self, job: Job, error: str, wall_s: float, attempt: int,
              traceback: Optional[str] = None) -> None:
        self.store.finish(job, "failed", error=error)
        data: Dict[str, object] = {"error": error, "wall_s": wall_s,
                                   "attempts": attempt}
        if traceback:
            data["traceback"] = traceback
        self.store.append_event(job, "failed", data)
        self.metrics.job_outcome("failed", job.spec.kind)
        self.metrics.job_wall_time(job.spec.kind, wall_s)

    def _run_attempt(self, job: Job, report_dir: Optional[str],
                     timeout_s: float, attempt: int = 1
                     ) -> Tuple[str, Dict[str, object]]:
        """Fork one attempt; returns (outcome, payload).

        Outcomes: ``done``/``error`` (terminal messages off the pipe),
        ``timeout`` (deadline expired, process terminated), ``died``
        (pipe closed with no terminal message). The attempt number
        rides into the child so ``serve_worker_death`` faults can doom
        exactly the first N attempts.
        """
        context = _fork_context()
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=execute_job, args=(job.spec, child_conn),
            kwargs={"report_dir": report_dir, "cache_dir": self.cache_dir,
                    "attempt": attempt},
            name=f"serve-{job.id}")
        process.start()
        child_conn.close()  # parent must drop its copy for EOF to work
        with self._lock:
            self._procs[job.id] = process
        deadline = time.monotonic() + timeout_s
        result: Optional[Tuple[str, Dict[str, object]]] = None
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._terminate(process)
                    return "timeout", {}
                if not parent_conn.poll(min(remaining, 0.1)):
                    continue
                try:
                    kind, payload = parent_conn.recv()
                except (EOFError, OSError):
                    break  # worker went away
                if kind == "progress":
                    self.store.append_event(job, "progress", payload)
                elif kind in ("done", "error"):
                    result = (kind, payload)
                    break
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck exiting
                self._terminate(process)
            if result is not None:
                return result
            return "died", {"exitcode": process.exitcode}
        finally:
            parent_conn.close()
            with self._lock:
                self._procs.pop(job.id, None)

    @staticmethod
    def _terminate(process) -> None:
        process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - terminate ignored
            process.kill()
            process.join(timeout=5.0)
