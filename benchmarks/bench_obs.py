"""Disabled-tracer overhead budget on the mesh request path.

Plain script (not pytest — ``testpaths`` keeps it out of tier-1)::

    PYTHONPATH=src python benchmarks/bench_obs.py

Tracing is off by default, but an installed ``Tracer(enabled=False)``
still costs every request one ``get_tracer()`` check and one
short-circuiting ``start()`` call. This script times a fixed canal
request loop with no tracer and with a disabled tracer, in
back-to-back pairs, and exits 1 if the median disabled/untraced wall
time ratio exceeds :data:`BUDGET`. The end-to-end benchmark
(``benchmarks/e2e``) cannot see this cost, because it never installs a
tracer.

Tracing must never perturb the model, so the script also fails if the
two modes produce different request latencies.
"""

import gc
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.testbed import build_testbed  # noqa: E402
from repro.mesh import HttpRequest  # noqa: E402
from repro.obs import Tracer, take_collectors, use_tracer  # noqa: E402

#: Allowed disabled-tracer wall time, as a ratio of the untraced run.
BUDGET = 1.05
REQUESTS = 1000
PAIRS = 41


def request_loop(tracer):
    """One canal testbed, :data:`REQUESTS` requests through gateway +
    node L4 + app; returns ``(wall_s, latencies)``."""
    run = build_testbed("canal", seed=23)
    latencies = []

    def scenario():
        connection = yield run.sim.process(
            run.mesh.open_connection(run.client_pod, "svc1"))
        for _ in range(REQUESTS):
            response = yield run.sim.process(
                run.mesh.request(connection, HttpRequest()))
            latencies.append(response.latency_s)

    run.sim.process(scenario())
    gc.collect()
    started = time.perf_counter()
    if tracer is None:
        run.sim.run()
    else:
        with use_tracer(tracer):
            run.sim.run()
        take_collectors()
    return time.perf_counter() - started, latencies


def main() -> int:
    reference, ratios = None, []
    for index in range(PAIRS):
        # Back-to-back pairs in alternating order, so drift on a shared
        # host hits both modes alike; the median ratio ignores outliers.
        pair = [("untraced", None), ("disabled", Tracer(enabled=False))]
        if index % 2:
            pair.reverse()
        wall = {}
        for mode, tracer in pair:
            wall[mode], latencies = request_loop(tracer)
            if reference is None:
                reference = latencies
            elif latencies != reference:
                print("FAIL: a disabled tracer perturbed the simulation")
                return 1
        ratios.append(wall["disabled"] / wall["untraced"])
    overhead = statistics.median(ratios)
    ok = overhead <= BUDGET
    print(f"disabled-tracer overhead {overhead:.3f}x, median of {PAIRS} "
          f"pairs ({'within' if ok else 'FAIL: exceeds'} budget "
          f"{BUDGET:.2f}x)")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
