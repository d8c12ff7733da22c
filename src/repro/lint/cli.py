"""``python -m repro.lint`` — the simlint command line.

Exit codes: 0 clean, 1 findings, 2 usage error. ``--format json``
emits a machine-readable report (CI uploads it as an artifact);
``--output`` additionally writes the report to a file so the exit code
still gates the job. A path that does not exist, an unknown rule id,
or a ``--select``/``--ignore`` that names no rule id is a usage error.

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

from .framework import Finding, all_rules
from .runner import collect_files, lint_files, select_rules

__all__ = ["main"]

#: What a bare ``python -m repro.lint`` lints, where present: the
#: directories CI's lint job names.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def _rule_ids(value: str) -> List[str]:
    ids = [part.strip() for part in value.split(",") if part.strip()]
    if not ids:
        raise argparse.ArgumentTypeError("names no rule id")
    return ids


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: determinism & sim-safety static analysis.")
    parser.add_argument("paths", nargs="*", metavar="path",
                        help="files or directories to lint (default: "
                             "whichever of %s exist)"
                             % ", ".join(DEFAULT_PATHS))
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="also write the report to FILE")
    parser.add_argument("--select", metavar="RULE,...", default=None,
                        type=_rule_ids, help="only run these rule ids")
    parser.add_argument("--ignore", metavar="RULE,...", default=None,
                        type=_rule_ids, help="skip these rule ids")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _default_paths() -> List[str]:
    paths = [p for p in DEFAULT_PATHS if os.path.isdir(p)]
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
        rules = select_rules(options.select, options.ignore)
        files = collect_files(options.paths or _default_paths())
    except (KeyError, FileNotFoundError) as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2

    findings = lint_files(files, rules=rules)

    if options.format == "json":
        report = _render_json(findings, len(files))
    else:
        report = _render_text(findings, len(files))
    print(report)
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 1 if findings else 0
