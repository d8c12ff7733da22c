"""Shared AST utilities: module discovery, imports, name resolution.

Two consumers with the same needs live in this repository:

* the result cache (:mod:`repro.runtime.cache`) hashes an exhibit's
  *static import closure* — it must find every module under ``repro``
  and extract its intra-package imports without executing anything;
* the simlint analyzer (:mod:`repro.lint`) walks the same files and
  additionally needs import-alias tables to resolve calls like
  ``perf_counter()`` back to ``time.perf_counter``.

Everything here is purely syntactic (one :func:`ast.parse` per file, no
imports executed), so both consumers stay deterministic and cheap.
Imports are found by one walk over statement blocks
(:func:`import_statements`); only a file that spells ``__import__``
gets a walk over its expressions.
"""

from __future__ import annotations

import ast
import os
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

__all__ = [
    "ImportNode",
    "collect_aliases",
    "dotted_name",
    "dynamic_import_lines",
    "import_statements",
    "iter_module_files",
    "module_imports",
    "module_name_for_path",
    "parse_file",
    "resolve_call_name",
]


# -- module discovery --------------------------------------------------------

def iter_module_files(root: str) -> Iterable[Tuple[str, str]]:
    """Yield ``(dotted module name, file path)`` for every .py under a
    package directory ``root`` (e.g. the ``repro`` package dir)."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, os.path.dirname(root))
            parts = rel[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            yield ".".join(parts), path


def module_name_for_path(path: str) -> Optional[str]:
    """Dotted module name for ``path``, by walking up ``__init__.py`` dirs.

    ``src/repro/mesh/ambient.py`` -> ``repro.mesh.ambient``;
    a file outside any package returns its bare stem.
    """
    path = os.path.abspath(path)
    if not path.endswith(".py"):
        return None
    parts: List[str] = []
    stem = os.path.basename(path)[:-3]
    if stem != "__init__":
        parts.append(stem)
    current = os.path.dirname(path)
    while os.path.isfile(os.path.join(current, "__init__.py")):
        parts.insert(0, os.path.basename(current))
        parent = os.path.dirname(current)
        if parent == current:  # pragma: no cover - filesystem root
            break
        current = parent
    return ".".join(parts) if parts else None


def parse_file(path: str) -> Tuple[bytes, Optional[ast.AST]]:
    """``(source bytes, tree)``; tree is None on a syntax error."""
    with open(path, "rb") as handle:
        source = handle.read()
    try:
        return source, ast.parse(source, filename=path)
    except SyntaxError:
        return source, None


# -- static imports ----------------------------------------------------------

ImportNode = Union[ast.Import, ast.ImportFrom]

#: Fields that hold statement lists. Imports are statements, and
#: statements nest only in these blocks (never inside an expression),
#: so a walk over them alone sees every import.
_BLOCK_FIELDS = ("body", "handlers", "orelse", "finalbody", "cases")


def import_statements(tree: ast.AST) -> List[ImportNode]:
    """Every ``import``/``from`` statement in ``tree``, found by walking
    statement blocks only, in the order :func:`ast.walk` yields them
    (breadth first), so a later alias still overrides an earlier one."""
    found: List[ImportNode] = []
    todo = deque([tree])
    while todo:
        node = todo.popleft()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
            continue
        for name in _BLOCK_FIELDS:
            block = getattr(node, name, None)
            if block:
                todo.extend(block)
    return found


def module_imports(imports: Iterable[ImportNode], module: str,
                   is_package: bool, known: Set[str]) -> Set[str]:
    """Modules from ``known`` that ``module``'s ``imports`` (its
    :func:`import_statements`) name.

    Resolves absolute and relative imports against ``known`` by longest
    known prefix, so ``from repro.core.replica import ReplicaConfig``
    lands on ``repro.core.replica`` and plain ``import repro.core`` on
    ``repro.core``.
    """
    package_parts = module.split(".")
    if not is_package:
        package_parts = package_parts[:-1]
    found: Set[str] = set()

    def resolve(name: str) -> None:
        parts = name.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in known:
                found.add(candidate)
                return
            parts = parts[:-1]

    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                resolve(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[:len(package_parts) - node.level + 1]
                prefix = ".".join(base)
            else:
                prefix = ""
            stem = node.module or ""
            base_name = ".".join(p for p in (prefix, stem) if p)
            if base_name:
                resolve(base_name)
            for alias in node.names:
                if base_name:
                    resolve(f"{base_name}.{alias.name}")
                elif node.level == 0:
                    resolve(alias.name)
    found.discard(module)
    return found


def dynamic_import_lines(tree: ast.AST,
                         imports: Optional[List[ImportNode]] = None,
                         source: Optional[bytes] = None) -> List[int]:
    """Line numbers of dynamic-import constructs a static walker cannot
    see through: ``import importlib`` / ``from importlib import ...``
    and calls to ``__import__``.

    ``imports`` is ``import_statements(tree)`` when the caller already
    has it. Given the file's ``source``, the expression walk for
    ``__import__`` calls runs only if that name is spelled in it.
    """
    if imports is None:
        imports = import_statements(tree)
    lines: Set[int] = set()
    for node in imports:
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "importlib"
                   for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == \
                    "importlib":
                lines.add(node.lineno)
    if source is None or b"__import__" in source:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "__import__":
                lines.add(node.lineno)
    return sorted(lines)


# -- name resolution for lint rules -----------------------------------------

def collect_aliases(tree: ast.AST,
                    imports: Optional[List[ImportNode]] = None
                    ) -> Dict[str, str]:
    """Local name -> dotted origin, from every import in the tree
    (``imports`` is ``import_statements(tree)`` when already known).

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` -> ``{"pc":
    "time.perf_counter"}``. Relative imports are skipped (they cannot
    name stdlib modules, which is all the rules resolve against).
    """
    if imports is None:
        imports = import_statements(tree)
    aliases: Dict[str, str] = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_name(func: ast.AST,
                      aliases: Dict[str, str]) -> Optional[str]:
    """Dotted name of a call target with import aliases substituted.

    With ``from datetime import datetime``, the call ``datetime.now()``
    resolves to ``datetime.datetime.now``. Purely syntactic: a local
    variable shadowing an imported name will still resolve — simlint
    rules accept that imprecision (suppressible) over executing code.
    """
    name = dotted_name(func)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    origin = aliases.get(root)
    if origin is not None:
        return f"{origin}.{rest}" if rest else origin
    return name
