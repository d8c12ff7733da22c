"""Shared helpers for the benchmark scripts and the perf gate.

Perf numbers only mean something relative to the machine that produced
them, so every trajectory entry carries a *calibration rate*: the
throughput of a fixed pure-Python spin loop measured in the same
process. The perf gate compares **normalized** rates
(``events_per_sec / calib_ops_per_sec``), which cancels most of the
cross-runner and noisy-neighbor variance that raw events/sec would
inherit.

Trajectory files are committed JSON documents shaped as::

    {"schema": 1,
     "entries": [{"git_sha": ..., "date": ..., "scenario": ...,
                  "events_per_sec": ..., "calib_ops_per_sec": ...}, ...],
     "last_run": {...}}

``entries`` is append-only (the in-repo perf history); ``last_run``
holds the full report of the most recent run for human inspection.
"""

import json
import os
import subprocess
import time


def calibrate(n: int = 2_000_000) -> float:
    """Ops/sec of a fixed spin loop — the machine-speed yardstick."""
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for index in range(n):
            total += index & 7
        elapsed = time.perf_counter() - started
        best = max(best, n / elapsed)
    return best


def git_sha(repo_dir: str) -> str:
    """Short commit sha of ``repo_dir``, suffixed ``-dirty`` when tracked
    files have uncommitted changes (a measurement of a change on top of
    that commit), or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*"],
            cwd=repo_dir, capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def utc_date() -> str:
    return time.strftime("%Y-%m-%d", time.gmtime())


def load_trajectory(path: str) -> dict:
    """The trajectory document at ``path`` (empty skeleton if absent)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return {"schema": 1, "entries": [], "last_run": {}}
    doc.setdefault("schema", 1)
    doc.setdefault("entries", [])
    doc.setdefault("last_run", {})
    return doc


def append_trajectory(path: str, entries: list, last_run: dict) -> dict:
    """Append ``entries`` to the committed trajectory and rewrite it."""
    doc = load_trajectory(path)
    doc["entries"].extend(entries)
    doc["last_run"] = last_run
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


def baseline_rates(path: str) -> dict:
    """Latest committed normalized rate per scenario.

    Maps ``scenario -> events_per_sec / calib_ops_per_sec`` using the
    most recent trajectory entry for each scenario.
    """
    doc = load_trajectory(path)
    rates = {}
    for entry in doc["entries"]:
        calib = entry.get("calib_ops_per_sec") or 0
        if calib > 0:
            rates[entry["scenario"]] = entry["events_per_sec"] / calib
    return rates


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
