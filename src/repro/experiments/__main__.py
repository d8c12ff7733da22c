"""CLI: regenerate paper exhibits.

Usage::

    python -m repro.experiments                    # usage + exhibit ids
    python -m repro.experiments --list             # sorted ids, one per line
    python -m repro.experiments fig11              # run one and print it
    python -m repro.experiments all                # run everything
    python -m repro.experiments all --jobs 0       # ... on every core
    python -m repro.experiments fig11 --no-cache   # force recompute
    python -m repro.experiments --report out fig11 # also drop artifacts
    python -m repro.experiments all --tier fleet   # fluid scale tier only
    python -m repro.experiments --list --tier all  # every id + its tier

``--tier`` scopes ``all`` and ``--list`` to the per-session testbed
exhibits (default), the ``repro.fleet`` fluid-tier exhibits, or both;
exhibits named explicitly always run regardless of tier.

Runs go through ``repro.runtime``:

* ``--jobs N`` parallelizes over ``N`` worker processes (``0`` = all
  cores). A single exhibit parallelizes its internal sweeps (RPS grids,
  seed repeats); several exhibits (or ``all``) fan out whole exhibits,
  one per worker. Results print in request order either way, and are
  byte-identical to a serial run.
* Finished exhibits are cached under ``--cache-dir`` (default
  ``.repro-cache/``, or ``$REPRO_CACHE_DIR``), keyed by the exhibit id,
  the cost-model fingerprint, and the source hash of the exhibit's
  import closure — touching a module only invalidates the exhibits
  that (transitively) import it. ``--no-cache`` bypasses the cache.

With ``--report <dir>``, every exhibit run executes with an enabled
telemetry registry and a sampled per-layer wall split (the event loop
is the plain run's), and drops three machine-readable artifacts into
``<dir>``:

* ``<exp_id>.report.json`` — tables/series/findings + telemetry snapshot
  + the ``layers`` block: wall-time samples and each top-level
  ``repro`` package's share of them;
* ``<exp_id>.prom``        — Prometheus text-format metrics snapshot;
* ``<exp_id>.trace.json``  — Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev).

Artifacts require a real execution, so ``--report`` refreshes the cache
instead of reading it.
"""

import argparse
import sys

from ..runtime import RunSpec, SweepExecutor, run_exhibit, use_executor
from . import EXPERIMENTS, TIERS, exhibit_ids, exhibit_tier


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate paper exhibits.")
    parser.add_argument("targets", nargs="*", metavar="exhibit",
                        help="exhibit ids to run, or 'all'")
    parser.add_argument("--list", action="store_true", dest="list_exhibits",
                        help="print the sorted known exhibit ids (with "
                             "their tier) and exit")
    parser.add_argument("--tier", choices=TIERS + ("all",),
                        default="testbed",
                        help="which tier 'all' and --list cover: the "
                             "per-session testbed exhibits (default), "
                             "the fluid fleet-scale exhibits, or both; "
                             "explicitly named exhibits always run")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = all cores; default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and don't write the result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory "
                             "(default .repro-cache or $REPRO_CACHE_DIR)")
    parser.add_argument("--report", default=None, metavar="DIR",
                        help="write report/metrics/trace artifacts to DIR")
    return parser


def _print_run(run) -> None:
    print(run.result.formatted())
    status = "cached" if run.cache_hit else "regenerated"
    line = f"[{run.exp_id} {status} in {run.elapsed_s:.1f}s"
    if run.artifact_paths:
        line += "; artifacts: " + ", ".join(sorted(
            run.artifact_paths.values()))
    print(line + "]\n")


def main(argv) -> int:
    try:
        options = _parser().parse_args(argv[1:])
    except SystemExit as exit_:  # argparse error (2) or --help (0)
        return 0 if exit_.code == 0 else 1
    try:
        executor = SweepExecutor(jobs=options.jobs)  # pools start lazily
    except ValueError as exc:
        print(f"python -m repro.experiments: {exc}", file=sys.stderr)
        return 1

    def in_tier(exp_id: str) -> bool:
        return options.tier in ("all", exhibit_tier(exp_id))

    if options.list_exhibits:
        for exp_id in exhibit_ids():
            if in_tier(exp_id):
                print(f"{exp_id}  [{exhibit_tier(exp_id)}]")
        return 0
    if not options.targets:
        _parser().print_usage()
        print("exhibits:", " ".join(EXPERIMENTS))
        return 1
    if options.targets == ["all"]:
        targets = [exp_id for exp_id in EXPERIMENTS if in_tier(exp_id)]
    else:
        targets = options.targets
        unknown = [t for t in targets if t not in EXPERIMENTS]
        if unknown:
            print("unknown exhibit(s):", " ".join(unknown), file=sys.stderr)
            print("known exhibits:", " ".join(EXPERIMENTS), file=sys.stderr)
            return 1

    specs = [RunSpec(exp_id, report_dir=options.report,
                     use_cache=not options.no_cache,
                     cache_dir=options.cache_dir)
             for exp_id in targets]
    with executor:
        if len(specs) == 1:
            # One exhibit: spend the workers inside it, on its own sweeps.
            with use_executor(executor=executor):
                _print_run(run_exhibit(specs[0]))
            return 0
        # Several exhibits: one exhibit per worker; inner sweeps stay
        # serial (pool workers are daemonic and cannot nest pools).
        for run in executor.imap(run_exhibit, specs):
            _print_run(run)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
