"""``python -m repro.lint`` — the simlint command line.

Exit codes: 0 clean (or every finding baselined), 1 findings, 2 usage
error. ``--format json`` emits a machine-readable report (CI uploads it
as an artifact), ``--format sarif`` emits SARIF 2.1.0 for GitHub code
scanning; ``--output`` additionally writes the report to a file so the
exit code still gates the job. ``--jobs N`` fans the per-file work
out over ``runtime.sweep_map`` workers with byte-identical findings at
any jobs level, and the content-hash incremental cache
(``--cache-dir``, disable with ``--no-cache``) keeps warm re-runs
O(changed files).

A ``simlint-baseline.json`` in the current directory is loaded
automatically when ``--baseline`` is not given, so the repository's
accepted findings (intentional wall-clock timing in the benchmark
harness) don't fail routine runs; pass ``--baseline ''`` to disable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .framework import Finding, all_rules
from .runner import (
    collect_files,
    lint_files,
    load_baseline,
    select_rules,
    split_baselined,
    write_baseline,
)
from .sarif import render_sarif

__all__ = ["main"]

#: Auto-loaded when present and ``--baseline`` is not given.
DEFAULT_BASELINE = "simlint-baseline.json"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: determinism & sim-safety static analysis.")
    parser.add_argument("paths", nargs="*", metavar="path",
                        help="files or directories to lint "
                             "(default: src and tests if present)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="also write the report to FILE")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="accepted-findings file; matching findings "
                             "don't fail the run (default: "
                             f"{DEFAULT_BASELINE} when present; pass '' "
                             "to disable)")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="write current findings to FILE and exit 0")
    parser.add_argument("--select", metavar="RULE,...", default=None,
                        help="only run these rule ids")
    parser.add_argument("--ignore", metavar="RULE,...", default=None,
                        help="skip these rule ids")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="lint files on N sweep workers "
                             "(0 = all cores); findings are "
                             "byte-identical at any level")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="incremental cache directory "
                             "(default: .repro-cache/simlint)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental cache")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _split_ids(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _default_paths() -> List[str]:
    paths = [p for p in ("src", "tests") if os.path.isdir(p)]
    return paths or ["."]


def _render_json(findings: List[Finding], baselined: List[Finding],
                 files: int) -> str:
    by_rule: dict = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    report = {
        "version": 1,
        "tool": "simlint",
        "summary": {"files": files, "findings": len(findings),
                    "baselined": len(baselined), "by_rule": by_rule},
        "findings": [f.to_dict() for f in findings],
        "baselined": [f.to_dict() for f in baselined],
    }
    return json.dumps(report, indent=2, sort_keys=True)


def _render_text(findings: List[Finding], baselined: List[Finding],
                 files: int) -> str:
    lines = [finding.format_text() for finding in findings]
    summary = (f"simlint: {len(findings)} finding(s) in {files} file(s)")
    if baselined:
        summary += f" ({len(baselined)} baselined)"
    lines.append(summary)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        options = _parser().parse_args(argv)
    except SystemExit as exit_:  # argparse --help (0) or usage error (2)
        return 0 if exit_.code == 0 else 2

    if options.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<10} {rule.severity:<8} {rule.summary}")
        return 0

    try:
        rules = select_rules(_split_ids(options.select),
                             _split_ids(options.ignore))
        files = collect_files(options.paths or _default_paths())
    except (KeyError, FileNotFoundError) as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2

    findings = lint_files(files, rules=rules, jobs=options.jobs,
                          cache_dir=options.cache_dir,
                          use_cache=not options.no_cache)

    if options.write_baseline:
        write_baseline(options.write_baseline, findings)
        print(f"simlint: wrote {len(findings)} finding(s) to "
              f"{options.write_baseline}")
        return 0

    baseline_path = options.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    baselined: List[Finding] = []
    if baseline_path:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"simlint: bad baseline {baseline_path!r}: {exc}",
                  file=sys.stderr)
            return 2
        findings, baselined = split_baselined(findings, baseline)

    if options.format == "sarif":
        report = render_sarif(findings, baselined, rules)
    elif options.format == "json":
        report = _render_json(findings, baselined, len(files))
    else:
        report = _render_text(findings, baselined, len(files))
    print(report)
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 1 if findings else 0
