"""``python -m repro.lint`` — the simlint command line.

Exit codes: 0 clean, 1 findings, 2 usage error. ``--format json``
emits a machine-readable report (CI uploads it as an artifact),
``--format sarif`` emits SARIF 2.1.0 for GitHub code scanning;
``--output`` additionally writes the report to a file so the exit code
still gates the job. ``--jobs N`` fans the per-file work
out over ``runtime.sweep_map`` workers with byte-identical findings at
any jobs level, and the content-hash incremental cache
(``--cache-dir``, disable with ``--no-cache``) keeps warm re-runs
O(changed files).

An accepted finding is suppressed where it stands, with a
``# simlint: ignore[RULE]`` comment on its line; there is no
suppression file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..runtime.sweep import resolve_jobs
from .framework import Finding, all_rules
from .runner import collect_files, lint_files, select_rules
from .sarif import render_sarif

__all__ = ["main"]


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


def _render_json(findings: List[Finding], files: int) -> str:
    by_rule: dict = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    report = {
        "version": 1,
        "tool": "simlint",
        "summary": {"files": files, "findings": len(findings),
                    "by_rule": by_rule},
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(report, indent=2, sort_keys=True)


def _render_text(findings: List[Finding], files: int) -> str:
    lines = [finding.format_text() for finding in findings]
    lines.append(f"simlint: {len(findings)} finding(s) in {files} file(s)")
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
        resolve_jobs(options.jobs)
        rules = select_rules(_split_ids(options.select),
                             _split_ids(options.ignore))
        files = collect_files(options.paths or _default_paths())
    except (KeyError, FileNotFoundError, ValueError) as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2

    findings = lint_files(files, rules=rules, jobs=options.jobs,
                          cache_dir=options.cache_dir,
                          use_cache=not options.no_cache)

    if options.format == "sarif":
        report = render_sarif(findings, rules)
    elif options.format == "json":
        report = _render_json(findings, len(files))
    else:
        report = _render_text(findings, len(files))
    print(report)
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 1 if findings else 0
