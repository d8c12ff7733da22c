"""CLI: run the simulation service.

Usage::

    python -m repro.serve                          # 127.0.0.1:8731
    python -m repro.serve --port 0 --port-file p   # ephemeral port for CI
    python -m repro.serve --workers 4 --queue-depth 32
    python -m repro.serve --cache-dir /tmp/cc --artifacts-dir out/

Then, from anywhere::

    curl -X POST localhost:8731/jobs -d '{"kind":"exhibit","exhibit":"fig11"}'
    curl localhost:8731/jobs/job-000001
    curl -N localhost:8731/jobs/job-000001/events    # SSE progress
    curl localhost:8731/metrics

SIGTERM (or SIGINT) triggers a *graceful drain*: submissions start
answering 503, queued and running jobs finish, artifacts flush, the
process prints a ``drain complete`` line and exits 0. A second signal
forces a hard stop.
"""

import argparse
import asyncio
import signal
import sys

from .api import ServeAPI, start_server
from .jobs import JobStore
from .metrics import ServeMetrics
from .scheduler import Scheduler


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve exhibit runs and sweeps over HTTP.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8731,
                        help="TCP port (0 = ephemeral; default 8731)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="job worker processes (default 2)")
    parser.add_argument("--queue-depth", type=int, default=16, metavar="N",
                        help="max queued jobs before 429 (default 16)")
    parser.add_argument("--job-timeout", type=float, default=600.0,
                        metavar="S",
                        help="per-attempt timeout in seconds (default 600)")
    parser.add_argument("--max-retries", type=int, default=1, metavar="N",
                        help="retries after worker death (default 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory "
                             "(default .repro-cache or $REPRO_CACHE_DIR)")
    parser.add_argument("--artifacts-dir", default=None, metavar="DIR",
                        help="where report-job artifacts land "
                             "(default: a fresh temp dir)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port here once listening "
                             "(for scripts using --port 0)")
    parser.add_argument("--allow-probe-jobs", action="store_true",
                        help=argparse.SUPPRESS)  # test deployments only
    return parser


async def _amain(options, store: JobStore, metrics: ServeMetrics,
                 scheduler: Scheduler) -> int:
    scheduler.start()
    api = ServeAPI(scheduler, store, metrics)
    server, port = await start_server(api, options.host, options.port)

    print(f"repro.serve listening on http://{options.host}:{port} "
          f"(workers={options.workers}, queue-depth={options.queue_depth})",
          flush=True)
    if options.port_file:
        with open(options.port_file, "w") as handle:
            handle.write(str(port))

    loop = asyncio.get_running_loop()
    drain_requested = asyncio.Event()

    def _on_signal() -> None:
        if drain_requested.is_set():  # second signal: stop the hard way
            scheduler.stop(force=True)
            return
        drain_requested.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, _on_signal)

    await drain_requested.wait()
    print("repro.serve draining: finishing queued and running jobs",
          flush=True)
    scheduler.begin_drain()  # submissions 503 while we finish up
    clean = await loop.run_in_executor(None, scheduler.drain, None)
    server.close()
    await server.wait_closed()
    counts = store.counts()
    print(f"repro.serve drain complete: {counts['done']} done, "
          f"{counts['failed']} failed; exiting", flush=True)
    return 0 if clean else 1


def main(argv) -> int:
    try:
        options = _parser().parse_args(argv[1:])
    except SystemExit as exit_:
        return 0 if exit_.code == 0 else 1
    store = JobStore()
    metrics = ServeMetrics()
    try:
        scheduler = Scheduler(
            store, metrics, workers=options.workers,
            queue_depth=options.queue_depth,
            default_timeout_s=options.job_timeout,
            max_retries=options.max_retries,
            cache_dir=options.cache_dir,
            artifacts_root=options.artifacts_dir,
            allow_probes=options.allow_probe_jobs)
    except ValueError as exc:  # a worker/queue/timeout flag out of range
        print(f"python -m repro.serve: {exc}", file=sys.stderr)
        return 1
    return asyncio.run(_amain(options, store, metrics, scheduler))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
