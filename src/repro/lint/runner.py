"""simlint runner: collect files, apply the per-file rule catalog.

Each file is parsed and walked once (:class:`ModuleSource`), and every
tree is held until the run ends. The project-wide
``Set``/``FrozenSet``-annotated attribute names (DET003's one
cross-file input) are read off those walks; then every selected rule
checks every file. Findings are sorted at the end.

Directory arguments are walked recursively; ``__pycache__``, hidden
directories, and ``lint_fixtures`` (intentional violations used by the
test suite) are skipped during the walk but never when a file is named
explicitly — ``python -m repro.lint tests/lint_fixtures/det001.py``
always lints exactly that file.
"""

from __future__ import annotations

import gc
import os
from typing import Iterable, List, Optional, Sequence, Set

from .framework import (
    Finding,
    ModuleSource,
    ProjectIndex,
    Rule,
    all_rules,
)

__all__ = [
    "DEFAULT_EXCLUDE_DIRS",
    "collect_files",
    "lint_files",
    "lint_paths",
    "select_rules",
]

DEFAULT_EXCLUDE_DIRS = frozenset({"__pycache__", "lint_fixtures",
                                  ".git", ".repro-cache", "build",
                                  "dist"})


def collect_files(paths: Sequence[str]) -> List[str]:
    """Python files under ``paths``: explicit files as-is, directories
    walked (deterministically sorted, excluded dirs pruned). A path that
    is neither raises :class:`FileNotFoundError`."""
    files: List[str] = []
    seen: Set[str] = set()

    def add(path: str) -> None:
        normalized = os.path.normpath(path)
        if normalized not in seen:
            seen.add(normalized)
            files.append(normalized)

    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in DEFAULT_EXCLUDE_DIRS
                    and not d.startswith("."))
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        add(os.path.join(dirpath, filename))
        elif path.endswith(".py") and os.path.isfile(path):
            add(path)
        else:
            raise FileNotFoundError(
                f"not a directory or .py file: {path!r}")
    return files


def select_rules(select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """The rule instances a run should apply."""
    rules = all_rules()
    known = {rule.id for rule in rules}
    for requested in list(select or []) + list(ignore or []):
        if requested not in known:
            raise KeyError(f"unknown rule {requested!r}; known: "
                           + ", ".join(sorted(known)))
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.id in wanted]
    if ignore:
        unwanted = set(ignore)
        rules = [rule for rule in rules if rule.id not in unwanted]
    return rules


def lint_files(files: Sequence[str],
               rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Findings (sorted, suppressions applied) for explicit files."""
    if rules is None:
        rules = select_rules()
    # The run holds every tree, and trees hold no reference cycles: a
    # cyclic collection would only rescan them, so none runs meanwhile.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _lint(files, rules)
    finally:
        if collecting:
            gc.enable()


def _lint(files: Sequence[str], rules: Sequence[Rule]) -> List[Finding]:
    findings: List[Finding] = []
    modules: List[ModuleSource] = []
    for path in files:
        module = ModuleSource(path)
        if module.skip_file:
            continue
        if module.syntax_error is not None:
            findings.append(Finding(
                rule="PARSE", severity="error", path=path,
                line=1, col=1,
                message=f"syntax error: {module.syntax_error}"))
            continue
        modules.append(module)

    project = ProjectIndex.build(modules)
    for module in modules:
        for rule in rules:
            for finding in rule.check(module, project):
                if not module.is_suppressed(finding.line, finding.rule):
                    findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint files/directories with the selected rule set."""
    return lint_files(collect_files(paths),
                      rules=select_rules(select, ignore))
