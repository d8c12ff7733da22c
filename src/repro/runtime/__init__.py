"""Execution layer: parallel sweeps, result caching, exhibit drivers.

``repro.runtime`` is how exhibits get cheap: independent simulator runs
(RPS grids, seeds, mesh variants) fan out over a ``multiprocessing``
pool with deterministic, point-ordered results (:mod:`.sweep`);
finished exhibits land in a content-addressed on-disk cache keyed by
exhibit id + config fingerprint + the source hash of the exhibit's
import closure (:mod:`.cache`); and the CLI drives both through one
picklable entry point (:mod:`.driver`).

This package sits *above* ``repro.simcore`` and ``repro.experiments``
in spirit but below them in imports: nothing here is imported by model
code, so the simulator's hot loop never pays for it.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    cached_run,
    exhibit_fingerprint,
    module_closure,
)
from .driver import ExhibitRun, RunSpec, run_exhibit
from .sweep import (
    SweepExecutor,
    SweepPointError,
    default_jobs,
    get_executor,
    set_executor,
    sweep_imap,
    sweep_map,
    use_executor,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExhibitRun",
    "ResultCache",
    "RunSpec",
    "SweepExecutor",
    "SweepPointError",
    "cached_run",
    "default_jobs",
    "exhibit_fingerprint",
    "get_executor",
    "module_closure",
    "run_exhibit",
    "set_executor",
    "sweep_imap",
    "sweep_map",
    "use_executor",
]
