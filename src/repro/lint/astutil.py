"""AST utilities for the simlint analyzer (:mod:`repro.lint`): module
names, imports, name resolution.

simlint builds import-alias tables to resolve calls like
``perf_counter()`` back to ``time.perf_counter``. Everything here is
purely syntactic (nothing is imported or executed), so the analyzer
stays deterministic and cheap.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "ImportNode",
    "collect_aliases",
    "dotted_name",
    "import_statements",
    "module_name_for_path",
    "resolve_call_name",
]


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


ImportNode = Union[ast.Import, ast.ImportFrom]


def import_statements(nodes: Iterable[ast.AST]) -> List[ImportNode]:
    """The ``import``/``from`` statements among ``nodes``, in their order.

    Given a module's nodes in :func:`ast.walk` order (breadth first), a
    later alias still overrides an earlier one in :func:`collect_aliases`.
    """
    return [node for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def collect_aliases(imports: Iterable[ImportNode]) -> Dict[str, str]:
    """Local name -> dotted origin, from a module's import statements.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` -> ``{"pc":
    "time.perf_counter"}``. Relative imports are skipped (they cannot
    name stdlib modules, which is all the rules resolve against).
    """
    aliases: Dict[str, str] = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                aliases[local] = target
        elif node.level == 0 and node.module:
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
