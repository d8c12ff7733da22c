"""simlint runner: collect files, apply the per-file rule catalog.

Two map phases, both cached by content hash and both fanned out over
``runtime.sweep_map`` under ``--jobs N`` (the same executor the
exhibits dogfood):

1. **Pre-pass** (:func:`_prepass_point`) — parse one file and collect
   its ``Set``/``FrozenSet``-annotated attribute names, the single
   cross-file fact any rule consumes (DET003). Keyed by content hash.
2. **Findings** (:func:`_findings_point`) — apply the selected rules to
   one file given the project-wide set-attribute table. Keyed by
   content hash + rule ids + a digest of that table, so adding a
   ``Set`` annotation in one file re-lints the files that may iterate
   over it.

Both phases consume and produce picklable values only and findings are
sorted at the end, so ``--jobs 1`` and ``--jobs 4`` are byte-identical
by construction.

Directory arguments are walked recursively; ``__pycache__``, hidden
directories, and ``lint_fixtures`` (intentional violations used by the
test suite) are skipped during the walk but never when a file is named
explicitly — ``python -m repro.lint tests/lint_fixtures/det001.py``
always lints exactly that file.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .cache import LintCache, content_hash
from .framework import (
    Finding,
    ModuleSource,
    ProjectIndex,
    Rule,
    all_rules,
    get_rule,
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

#: Bump to invalidate cached entries when rule logic changes.
LINT_VERSION = 3


def collect_files(paths: Sequence[str]) -> List[str]:
    """Python files under ``paths``: explicit files as-is, directories
    walked (deterministically sorted, excluded dirs pruned)."""
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
        elif path.endswith(".py"):
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


def _prepass_point(path: str) -> dict:
    """Parse one file; record its skip/syntax state and set-annotated
    attribute names. Module-level so it pickles to a sweep worker."""
    module = ModuleSource(path)
    names = () if module.tree is None else tuple(
        sorted(ProjectIndex.set_attributes_of(module.tree)))
    return {"skip": module.skip_file, "syntax_error": module.syntax_error,
            "set_attributes": names}


def _findings_point(point: tuple) -> Tuple[Finding, ...]:
    """Apply ``rule_ids`` to one file against the project's set table."""
    path, rule_ids, set_attributes = point
    module = ModuleSource(path)
    project = ProjectIndex(set_attributes)
    findings: List[Finding] = []
    for rule_id in rule_ids:
        for finding in get_rule(rule_id).check(module, project):
            if not module.is_suppressed(finding.line, finding.rule):
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return tuple(findings)


def _map(fn, points: Sequence, jobs: int) -> List:
    if jobs != 1 and len(points) > 1:
        # Dogfood the runtime layer: the same ambient executor the
        # paper exhibits sweep through (lazy import keeps plain
        # ``import repro.lint`` light).
        from ..runtime.sweep import sweep_map, use_executor
        with use_executor(jobs=jobs):
            return sweep_map(fn, list(points))
    return [fn(point) for point in points]


def _cached_map(cache: LintCache, fn, keyed: Sequence[Tuple[str, object]],
                jobs: int) -> List:
    """``fn`` over ``(key, point)`` pairs, cache-first, in input order."""
    results = {key: cache.get(key) for key, _point in keyed}
    missing = [(key, point) for key, point in keyed if results[key] is None]
    computed = _map(fn, [point for _key, point in missing], jobs)
    for (key, _point), value in zip(missing, computed):
        cache.put(key, value)
        results[key] = value
    return [results[key] for key, _point in keyed]


def lint_files(files: Sequence[str],
               rules: Optional[Sequence[Rule]] = None,
               jobs: int = 1,
               cache_dir: Optional[str] = None,
               use_cache: bool = True) -> List[Finding]:
    """Findings (sorted, suppressions applied) for explicit files."""
    if rules is None:
        rules = select_rules()
    cache = LintCache(cache_dir, enabled=use_cache)
    hashes: Dict[str, str] = {}
    for path in files:
        with open(path, "rb") as handle:
            hashes[path] = content_hash(handle.read())

    records = _cached_map(cache, _prepass_point, [
        (f"prepass::{path}::{hashes[path]}::{LINT_VERSION}", path)
        for path in files], jobs)
    findings: List[Finding] = []
    lintable: List[str] = []
    set_attributes: Set[str] = set()
    for path, record in zip(files, records):
        if record["skip"]:
            continue
        if record["syntax_error"] is not None:
            findings.append(Finding(
                rule="PARSE", severity="error", path=path,
                line=1, col=1,
                message=f"syntax error: {record['syntax_error']}"))
            continue
        lintable.append(path)
        set_attributes.update(record["set_attributes"])

    table = tuple(sorted(set_attributes))
    digest = hashlib.sha256(repr(table).encode()).hexdigest()[:16]
    rule_ids = tuple(sorted(rule.id for rule in rules))
    for file_findings in _cached_map(cache, _findings_point, [
            (f"findings::{path}::{hashes[path]}::{','.join(rule_ids)}::"
             f"{LINT_VERSION}::{digest}", (path, rule_ids, table))
            for path in lintable], jobs):
        findings.extend(file_findings)

    cache.save()
    findings.sort(key=lambda f: f.sort_key)
    return findings


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None,
               jobs: int = 1,
               cache_dir: Optional[str] = None,
               use_cache: bool = True) -> List[Finding]:
    """Lint files/directories with the selected rule set."""
    return lint_files(collect_files(paths),
                      rules=select_rules(select, ignore),
                      jobs=jobs, cache_dir=cache_dir,
                      use_cache=use_cache)
