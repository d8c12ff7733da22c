"""Fault-timeline registry, mirroring ``repro.obs.runtime``.

Every :class:`~repro.faults.engine.FaultEngine` registers its timeline
list here at construction; ``repro.runtime.driver`` drains them after a
run and folds them into the JSON run report.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = [
    "register_timeline",
    "take_timelines",
]

_timelines: List[List[Dict[str, object]]] = []


def register_timeline(timeline: List[Dict[str, object]]) -> None:
    """Track one engine's timeline for the next :func:`take_timelines`."""
    _timelines.append(timeline)


def take_timelines() -> List[List[Dict[str, object]]]:
    """Drain (return and forget) every registered fault timeline."""
    global _timelines
    drained, _timelines = _timelines, []
    return drained
