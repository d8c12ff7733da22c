"""Exhibit-level run drivers: one picklable entry point per exhibit run.

``python -m repro.experiments all --jobs N`` fans whole exhibits out to
pool workers; the worker-side body must be a module-level function, so
it lives here rather than in ``__main__``. The same function serves the
serial path (``jobs=1`` or a single target), keeping one code path for
cache, report artifacts, and timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from .cache import cached_run

__all__ = ["ExhibitRun", "RunSpec", "run_exhibit"]


@dataclass(frozen=True)
class RunSpec:
    """Everything a worker needs to run one exhibit."""

    exp_id: str
    report_dir: Optional[str] = None
    use_cache: bool = True
    cache_dir: Optional[str] = None


@dataclass
class ExhibitRun:
    """What came back: the result plus run metadata for the CLI."""

    exp_id: str
    result: object
    elapsed_s: float
    cache_hit: bool = False
    artifact_paths: Dict[str, str] = field(default_factory=dict)


def run_exhibit(spec: RunSpec) -> ExhibitRun:
    """Run one exhibit per ``spec``; picklable both ways.

    With a ``report_dir``, the run executes under an enabled telemetry
    registry and a sampled per-layer wall split, on the same event loop
    as a plain run, and drops the report artifacts (see ``repro.obs``) —
    artifacts require a real execution, so the cache is
    only written, never read. Without one, the cache may satisfy the
    run outright.
    """
    # simlint: ignore[DET001] CLI wall-clock metadata, not a sim input
    started = time.perf_counter()
    if spec.report_dir is None:
        if spec.use_cache:
            result, hit = cached_run(spec.exp_id, cache_dir=spec.cache_dir)
        else:
            from ..experiments import run
            result, hit = run(spec.exp_id), False
        return ExhibitRun(spec.exp_id, result,
                          # simlint: ignore[DET001] CLI wall-clock metadata
                          time.perf_counter() - started, cache_hit=hit)

    from ..obs import (
        Telemetry,
        sample_layers,
        set_telemetry,
        write_run_artifacts,
    )
    telemetry = Telemetry(enabled=True)
    previous = set_telemetry(telemetry)
    try:
        with sample_layers() as layers:
            if spec.use_cache:
                result, _hit = cached_run(spec.exp_id,
                                          cache_dir=spec.cache_dir,
                                          refresh=True)
            else:
                from ..experiments import run
                result = run(spec.exp_id)
    finally:
        set_telemetry(previous)
    elapsed = time.perf_counter() - started  # simlint: ignore[DET001] CLI timing
    # The result carries the run's one fault record and its traces, so
    # the artifacts are the same whether sweep points ran in this
    # process or in pool workers. Faults merge in virtual-time order.
    faults = sorted(result.faults, key=lambda entry: entry["t"])
    paths = write_run_artifacts(
        spec.report_dir, spec.exp_id, result=result, telemetry=telemetry,
        faults=faults, traces=result.traces, layers=layers,
        meta={"exp_id": spec.exp_id, "wall_clock_s": elapsed,
              "faults_recorded": len(faults),
              "traces_recorded": len(result.traces)})
    return ExhibitRun(spec.exp_id, result, elapsed, cache_hit=False,
                      artifact_paths=paths)
