"""Worker-process side of ``repro.serve``: the forked job body.

The scheduler forks one process per job attempt with
:func:`execute_job` as the entry point and a one-way pipe back to the
parent. Everything the parent learns about the attempt arrives as
``(kind, payload)`` messages on that pipe:

* ``("progress", {...})`` — after every finished exhibit/sweep point:
  completed/total counts, the point's elapsed wall time and cache
  status, and a compact :meth:`~repro.obs.telemetry.Telemetry.\
scalar_totals` snapshot of the job-scoped telemetry registry;
* ``("done", {...})`` — the result summaries + artifact names;
* ``("error", {...})`` — a job-side exception, with traceback text.

A pipe that closes with none of the terminal messages means the worker
*died* (crash, ``os._exit``, OOM-kill) — the parent distinguishes that
from job failure and retries it.

Telemetry is scoped per job: the child installs its own enabled
registry before running anything, so counters from concurrent jobs
never mix (each job has its own process) and progress snapshots are
attributable to exactly one job.

Everything here must stay picklable/forkable: module-level functions
only, results reduced to JSON-safe dicts before they touch the pipe.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Dict, List, Optional

from .jobs import JobSpec

__all__ = ["execute_job", "run_summary"]


def run_summary(run) -> Dict[str, object]:
    """Reduce an :class:`~repro.runtime.ExhibitRun` to a JSON-safe dict.

    The full :class:`ExperimentResult` (tables, series) stays in the
    run artifacts; the job record keeps the headline: title, scalar
    findings, notes, timing, and cache status.
    """
    result = run.result
    findings = {key: float(value) for key, value
                in getattr(result, "findings", {}).items()}
    return {
        "exp_id": run.exp_id,
        "title": getattr(result, "title", ""),
        "findings": findings,
        "notes": [str(note) for note in getattr(result, "notes", [])],
        "elapsed_s": run.elapsed_s,
        "cache_hit": run.cache_hit,
        "artifacts": {name: os.path.basename(path)
                      for name, path in sorted(run.artifact_paths.items())},
    }


def _run_probe(spec: JobSpec, conn) -> List[Dict[str, object]]:
    """Test-only job bodies exercising the scheduler's failure paths."""
    if spec.probe == "crash":
        os._exit(3)  # simulate worker death: no message, nonzero exit
    if spec.probe == "fail":
        raise RuntimeError(f"probe failure requested "
                           f"(probe_arg={spec.probe_arg})")
    if spec.probe == "sleep":
        deadline = time.monotonic() + spec.probe_arg
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(remaining, 0.05))
    conn.send(("progress", {"completed": 1, "total": 1,
                            "probe": spec.probe}))
    return [{"probe": spec.probe, "probe_arg": spec.probe_arg}]


def _run_exhibits(spec: JobSpec, conn, report_dir: Optional[str],
                  cache_dir: Optional[str],
                  telemetry) -> List[Dict[str, object]]:
    from ..runtime import RunSpec, run_exhibit, sweep_imap, use_executor

    # A chaos job never reads or writes the clean-result cache: a
    # faulted run answers a different question than the exhibit's
    # default, and must not poison (or be satisfied by) its entries.
    use_cache = spec.use_cache and not spec.faults
    specs = [RunSpec(exp_id, report_dir=report_dir,
                     use_cache=use_cache, cache_dir=cache_dir)
             for exp_id in spec.exhibits]
    total = len(specs)
    summaries: List[Dict[str, object]] = []

    def note_progress(run) -> None:
        summary = run_summary(run)
        summaries.append(summary)
        conn.send(("progress", {
            "completed": len(summaries),
            "total": total,
            "exp_id": summary["exp_id"],
            "elapsed_s": summary["elapsed_s"],
            "cache_hit": summary["cache_hit"],
            "telemetry": telemetry.scalar_totals(),
        }))

    if spec.kind == "sweep" and spec.jobs != 1 and total > 1:
        # Sweep jobs fan their points over a nested pool. The job
        # process was started non-daemonic precisely so this works.
        with use_executor(jobs=spec.jobs):
            for run in sweep_imap(run_exhibit, specs):
                note_progress(run)
    else:
        for run_spec in specs:
            note_progress(run_exhibit(run_spec))
    return summaries


def execute_job(spec: JobSpec, conn, report_dir: Optional[str] = None,
                cache_dir: Optional[str] = None, attempt: int = 1) -> None:
    """Child-process entry point: run one job attempt, report via pipe.

    ``attempt`` is the 1-based attempt number; a ``serve_worker_death``
    fault in the spec's plan kills that many leading attempts (the
    chaos analogue of the ``crash`` probe, but riding along a real
    exhibit run), exercising the scheduler's retry path end to end.
    """
    from ..obs import Telemetry, set_telemetry

    telemetry = Telemetry(enabled=True)
    set_telemetry(telemetry)  # job-scoped; process exits afterwards
    try:
        plan = spec.fault_plan()
        if plan is not None:
            for fault in plan.serve_faults():
                if attempt <= (int(fault.param) or 1):
                    os._exit(3)  # worker death: no message, nonzero exit
        if spec.kind == "probe":
            summaries = _run_probe(spec, conn)
        else:
            from ..faults import use_fault_plan
            with use_fault_plan(plan):
                summaries = _run_exhibits(spec, conn, report_dir,
                                          cache_dir, telemetry)
        conn.send(("done", {"runs": summaries,
                            "telemetry": telemetry.scalar_totals()}))
    except BaseException as exc:  # report, then exit cleanly
        try:
            conn.send(("error", {
                "error": repr(exc),
                "traceback": traceback.format_exc(),
            }))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
