"""simlint rule framework: findings, suppressions, rule registry.

A *rule* is a small pass over one parsed file with an id (``DET001``),
a severity, and a fix hint; it yields :class:`Finding`s against one
:class:`ModuleSource`.
Rules register themselves via the :func:`register` decorator and the
runner instantiates every registered rule unless ``--select``/
``--ignore`` narrows the set.

Suppression is per line::

    started = time.perf_counter()  # simlint: ignore[DET001] CLI timing

matches the finding's line; a comment-only line directly above the
flagged line works too (for statements that wrap). A bare
``# simlint: ignore`` suppresses every rule on that line, and a
``# simlint: skip-file`` anywhere in the file skips it entirely.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Type

from .astutil import (
    ImportNode,
    collect_aliases,
    import_statements,
    module_name_for_path,
    resolve_call_name,
)

__all__ = [
    "Finding",
    "ModuleSource",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
]

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*simlint:\s*skip-file")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str  # "error" | "warning"
    path: str
    line: int
    col: int
    message: str
    fix_hint: str = ""

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line, "col": self.col,
                "message": self.message, "fix_hint": self.fix_hint}

    def format_text(self) -> str:
        text = (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.severity}: {self.message}")
        if self.fix_hint:
            text += f" [fix: {self.fix_hint}]"
        return text


#: Nodes that open a scope for :attr:`ModuleSource.owners`.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class ModuleSource:
    """One file, parsed once and walked once, plus everything rules need.

    The walk records :attr:`nodes` (every node, in :func:`ast.walk`
    order), :attr:`parents` (node -> parent node) and :attr:`owners`
    (node -> the nearest function or lambda strictly above it, None at
    module level). Rules read these instead of walking the tree again.
    """

    def __init__(self, path: str, source: Optional[bytes] = None,
                 module: Optional[str] = None):
        self.path = path
        if source is None:
            with open(path, "rb") as handle:
                source = handle.read()
        self.source = source
        self.text = source.decode("utf-8", errors="replace")
        self.lines = self.text.splitlines()
        self.module = module if module is not None else \
            module_name_for_path(path)
        try:
            self.tree: Optional[ast.AST] = ast.parse(source, filename=path)
            self.syntax_error: Optional[str] = None
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = f"{exc.msg} (line {exc.lineno})"
        self.nodes: List[ast.AST] = []
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.owners: Dict[ast.AST, Optional[ast.AST]] = {}
        if self.tree is not None:
            self._walk(self.tree)
        self.imports: List[ImportNode] = import_statements(self.nodes)
        self.aliases: Dict[str, str] = collect_aliases(self.imports)
        #: Every call, in walk order, with its alias-resolved target name.
        self.call_names: Dict[ast.Call, Optional[str]] = {
            node: resolve_call_name(node.func, self.aliases)
            for node in self.nodes if isinstance(node, ast.Call)}
        self.skip_file = bool(_SKIP_FILE_RE.search(self.text))
        #: line number -> None (suppress all) or the suppressed rule ids.
        self.suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if not match:
                continue
            rules = match.group("rules")
            if rules is None or not rules.strip():
                self.suppressions[lineno] = None
            else:
                self.suppressions[lineno] = frozenset(
                    r.strip() for r in rules.split(",") if r.strip())

    def _walk(self, tree: ast.AST) -> None:
        """Breadth first, like :func:`ast.walk`: the list grows as the
        loop reads it. The fields are read inline, as
        :func:`ast.iter_child_nodes` reads them, without its generator."""
        nodes, parents, owners = self.nodes, self.parents, self.owners
        nodes.append(tree)
        owners[tree] = None
        for node in nodes:
            owner = node if isinstance(node, _SCOPES) else owners[node]
            for field in node._fields:
                value = getattr(node, field, None)
                children = value if isinstance(value, list) else (value,)
                for child in children:
                    if isinstance(child, ast.AST):
                        parents[child] = node
                        owners[child] = owner
                        nodes.append(child)

    def _line_suppresses(self, lineno: int, rule_id: str) -> bool:
        if lineno not in self.suppressions:
            return False
        rules = self.suppressions[lineno]
        return rules is None or rule_id in rules

    def is_suppressed(self, lineno: int, rule_id: str) -> bool:
        """Suppressed on its own line, or by a comment-only line above."""
        if self._line_suppresses(lineno, rule_id):
            return True
        above = lineno - 1
        if above >= 1 and above <= len(self.lines) and \
                _COMMENT_ONLY_RE.match(self.lines[above - 1]):
            return self._line_suppresses(above, rule_id)
        return False


class ProjectIndex:
    """Cross-file facts shared by every rule in one lint run.

    Currently: the names of attributes annotated as ``Set``/``FrozenSet``
    anywhere in the linted files, so DET003 can flag iteration over
    ``backend.configured_services`` from a *different* module than the
    one declaring ``self.configured_services: Set[int]``.
    """

    _SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet",
                        "typing.Set", "typing.FrozenSet",
                        "t.Set", "t.FrozenSet"}

    def __init__(self, set_attributes: Iterable[str] = ()) -> None:
        self.set_attributes: Set[str] = set(set_attributes)

    @classmethod
    def _is_set_annotation(cls, annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        name_parts: List[str] = []
        while isinstance(annotation, ast.Attribute):
            name_parts.append(annotation.attr)
            annotation = annotation.value
        if isinstance(annotation, ast.Name):
            name_parts.append(annotation.id)
        name = ".".join(reversed(name_parts))
        return name in cls._SET_ANNOTATIONS

    @classmethod
    def build(cls, modules: Iterable["ModuleSource"]) -> "ProjectIndex":
        """The index over ``modules``' attributes annotated
        ``Set``/``FrozenSet``."""
        return cls(node.target.attr
                   for module in modules for node in module.nodes
                   if isinstance(node, ast.AnnAssign)
                   and isinstance(node.target, ast.Attribute)
                   and cls._is_set_annotation(node.annotation))


class Rule:
    """Base class: subclass, set the class attributes, implement check."""

    id: str = ""
    severity: str = "error"
    summary: str = ""
    fix_hint: str = ""

    def check(self, module: ModuleSource,
              project: ProjectIndex) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str,
                fix_hint: Optional[str] = None) -> Finding:
        return Finding(rule=self.id, severity=self.severity,
                       path=module.path,
                       line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message,
                       fix_hint=self.fix_hint if fix_hint is None
                       else fix_hint)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global catalog."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id]()
