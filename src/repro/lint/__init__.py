"""simlint — AST-based determinism & sim-safety linter.

The repository's correctness claims (byte-identical sweeps at any
``--jobs`` level, sound cache keys from a static import closure, every
stochastic draw through a seeded rng) are conventions, not syntax; this
package turns them into machine-checked rules::

    python -m repro.lint src tests            # lint, exit 1 on findings
    python -m repro.lint --list-rules         # the rule catalog
    python -m repro.lint --format json src    # machine-readable report

Suppress a finding in place with a justification::

    started = time.perf_counter()  # simlint: ignore[DET001] CLI timing

See DESIGN.md §2c/§2h for the rule catalog and rationale.
"""

from .framework import (
    Finding,
    ModuleSource,
    ProjectIndex,
    Rule,
    all_rules,
    get_rule,
    register,
)
from .runner import collect_files, lint_files, lint_paths, select_rules
from . import rules  # noqa: F401  (imports register the rule catalog)

__all__ = [
    "Finding",
    "ModuleSource",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "collect_files",
    "get_rule",
    "lint_files",
    "lint_paths",
    "register",
    "select_rules",
]
