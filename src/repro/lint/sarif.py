"""SARIF 2.1.0 export for simlint findings.

GitHub code scanning ingests SARIF; ``python -m repro.lint --format
sarif`` renders one run with the full rule catalog in the driver
metadata and every finding as a ``results`` entry. Findings
suppressed inline (``# simlint: ignore[...]``) never reach the report.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from .framework import Finding, Rule

__all__ = ["render_sarif", "to_sarif"]

_SARIF_VERSION = "2.1.0"
_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
           "master/Schemata/sarif-schema-2.1.0.json")
_LEVELS = {"error": "error", "warning": "warning"}


def _result(finding: Finding) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path.replace("\\", "/"),
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {
                    "startLine": max(1, finding.line),
                    "startColumn": max(1, finding.col),
                },
            },
        }],
    }
    if finding.fix_hint:
        result["message"]["text"] += f" [fix: {finding.fix_hint}]"
    return result


def to_sarif(findings: Sequence[Finding],
             rules: Sequence[Rule] = ()) -> dict:
    """The SARIF log object for one lint run."""
    rule_metadata = [{
        "id": rule.id,
        "shortDescription": {"text": rule.summary},
        "help": {"text": rule.fix_hint or rule.summary},
        "defaultConfiguration": {
            "level": _LEVELS.get(rule.severity, "warning")},
    } for rule in sorted(rules, key=lambda r: r.id)]
    results: List[dict] = [_result(finding) for finding in findings]
    return {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "simlint",
                "informationUri": "https://example.invalid/simlint",
                "rules": rule_metadata,
            }},
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }


def render_sarif(findings: Sequence[Finding],
                 rules: Sequence[Rule] = ()) -> str:
    return json.dumps(to_sarif(findings, rules), indent=2,
                      sort_keys=True)
