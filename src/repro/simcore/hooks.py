"""Dependency-inversion hooks: upper layers register, simcore calls.

The simulation kernel sits at the bottom of the architecture layer DAG
(see ``repro.lint.rules.LAYERS``) and must not import upward. But the
observability layer wants a profiler attached to every freshly
constructed :class:`~repro.simcore.Simulator` while profiling is
enabled. The inversion: simcore calls the hooks defined here, and
``repro.obs.runtime`` registers its factory at import time.

With no factory registered (simcore imported stand-alone), every hook
is a cheap no-op — a simulator simply runs unprofiled.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["new_profiler", "set_profiler_factory"]

#: Registered by ``repro.obs.runtime``; returns a profiler for a newly
#: constructed simulator, or None while profiling is disabled.
_profiler_factory: Optional[Callable[[], Any]] = None


def set_profiler_factory(
        factory: Optional[Callable[[], Any]]
) -> Optional[Callable[[], Any]]:
    """Install the profiler factory; returns the previous one."""
    global _profiler_factory
    previous, _profiler_factory = _profiler_factory, factory
    return previous


def new_profiler() -> Optional[Any]:
    """The profiler for a new simulator (None when none registered)."""
    if _profiler_factory is None:
        return None
    return _profiler_factory()
