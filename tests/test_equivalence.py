"""Differential equivalence harness: each exhibit, three fresh
interpreters, byte-identical output.

Every number this repository reproduces is an exhibit's printed output,
so determinism is checked on that output, by running it. For each
registered exhibit (both tiers) ``python -m repro.experiments <id>``
runs three times:

* **A** — ``--no-cache --jobs 1 --report <tmp>`` under
  ``PYTHONHASHSEED=0``: serial, with telemetry, the per-layer wall
  sampler and trace collection switched on;
* **B** — ``--jobs 4 --cache-dir <tmp>`` under ``PYTHONHASHSEED=1``:
  the exhibit's inner sweeps fan out over a process pool, under another
  string-hash seed, into a cold result cache;
* **C** — B again from the same cache; it must print ``cached``.

A, B and C must match once each run's ``[<id> … in Ns]`` status line is
dropped. Pool workers inherit their parent's hash seed, so only a fresh
interpreter per seed exposes set-order bugs: A vs B covers serial vs
pooled, hash seed 0 vs 1 and instrumented vs plain at once, and B vs C
the result cache's pickle round trip.

Five exhibits run in tier-1; the rest carry the ``equivalence`` marker,
deselected by default like ``fleet``::

    PYTHONPATH=src python -m pytest tests/test_equivalence.py
    PYTHONPATH=src python -m pytest -m equivalence tests/test_equivalence.py
"""

import difflib
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

from repro.experiments import exhibit_ids

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Cheap exhibits covering sweeps, fault plans, resilience policies and
#: causal tracing; every other exhibit runs under ``-m equivalence``.
TIER1 = ("fig2", "fig17", "fig8_recovery", "fig8_resilience",
         "trace_breakdown")

#: How many diff lines a failure shows.
DIFF_HEAD = 40


def _run(exp_id, hash_seed, *flags):
    """stdout of one fresh ``python -m repro.experiments`` interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", exp_id, *flags],
        env=env, capture_output=True, text=True, timeout=3600)
    assert proc.returncode == 0, (
        f"{exp_id} {' '.join(flags)} exited {proc.returncode}:\n"
        f"{proc.stderr[-2000:]}")
    return proc.stdout


def _split_status(exp_id, stdout):
    """``(output without status lines, [cached|regenerated, ...])``."""
    status = re.compile(
        rf"^\[{re.escape(exp_id)} (cached|regenerated) in [0-9.]+s"
        rf"(; artifacts: .*)?\]$")
    kept, states = [], []
    for line in stdout.splitlines():
        match = status.match(line)
        if match:
            states.append(match.group(1))
        else:
            kept.append(line)
    return "\n".join(kept), states


def _params():
    for exp_id in exhibit_ids():
        marks = () if exp_id in TIER1 else (pytest.mark.equivalence,)
        yield pytest.param(exp_id, marks=marks, id=exp_id)


@pytest.mark.parametrize("exp_id", _params())
def test_exhibit_output_equivalent(exp_id, tmp_path):
    report_dir = tmp_path / "report"
    cache_dir = str(tmp_path / "cache")
    serial = _run(exp_id, 0, "--no-cache", "--jobs", "1",
                  "--report", str(report_dir))
    pooled = _run(exp_id, 1, "--jobs", "4", "--cache-dir", cache_dir)
    replayed = _run(exp_id, 1, "--jobs", "4", "--cache-dir", cache_dir)
    runs = [("A (serial, PYTHONHASHSEED=0, --report)", serial,
             "regenerated"),
            ("B (--jobs 4, PYTHONHASHSEED=1, cold cache)", pooled,
             "regenerated"),
            ("C (B replayed from its cache)", replayed, "cached")]
    outputs = []
    for name, stdout, expected in runs:
        output, states = _split_status(exp_id, stdout)
        assert states == [expected], (
            f"{exp_id}: run {name} printed {states}, not [{expected!r}]")
        outputs.append((name, output))
    for (left, left_out), (right, right_out) in zip(outputs, outputs[1:]):
        if left_out != right_out:
            diff = difflib.unified_diff(
                left_out.splitlines(), right_out.splitlines(),
                f"{exp_id} {left}", f"{exp_id} {right}", n=0,
                lineterm="")
            pytest.fail(f"{exp_id}: run {left} != run {right}\n"
                        + "\n".join(itertools.islice(diff, DIFF_HEAD)))


def test_report_stable_across_hash_seeds(tmp_path):
    """``--report``'s ``report.json`` is the same bytes under two string
    hash seeds and with its sweep points in pool workers, once its
    wall-time fields are dropped; its ``trace.json`` marks every fault
    the three seed runs injected."""
    exp_id = "fig8_recovery"
    reports = []
    for hash_seed, jobs in ((1, "1"), (2, "1"), (1, "2")):
        report_dir = tmp_path / f"report-{hash_seed}-{jobs}"
        _run(exp_id, hash_seed, "--no-cache", "--jobs", jobs,
             "--report", str(report_dir))
        report = json.loads(
            (report_dir / f"{exp_id}.report.json").read_text())
        del report["meta"]["wall_clock_s"], report["layers"]
        reports.append(json.dumps(report, indent=2))
        events = json.loads(
            (report_dir / f"{exp_id}.trace.json").read_text())["traceEvents"]
        assert sum(1 for event in events if event["ph"] == "i") == 30, jobs
    assert reports[0] == reports[1]
    assert reports[0] == reports[2], "--jobs 2 report differs from serial"
