"""Deterministic, seeded fault injection with invariant auditing.

The subsystem has three moving parts:

* :class:`FaultPlan` (``plan.py``) — a declarative, JSON-serializable
  schedule of typed faults: replica/backend/AZ crashes and recoveries,
  the query-of-death cascade, control-plane push delay and partition,
  cert-rotation failure and Nagle misconfiguration;
* :class:`FaultEngine` (``engine.py``) — compiles a plan onto a
  :class:`~repro.simcore.Simulator` agenda so faults fire at exact
  virtual times (byte-identical under ``sweep_map`` at any ``--jobs``
  level) and records a timeline of every injection/recovery;
* :class:`InvariantAuditor` (``audit.py``) — after every step,
  re-derives session conservation, availability, DNS health, and
  counter monotonicity from first principles and raises
  :class:`InvariantViolation` on the first inconsistency.

``runtime.py`` holds the timeline registry the run-report exporter
drains.
"""

from .audit import InvariantAuditor, InvariantViolation
from .engine import FaultEngine, FaultTargetError
from .plan import FAULT_KINDS, Fault, FaultPlan, FaultPlanError
from .runtime import register_timeline, take_timelines

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultEngine",
    "FaultPlan",
    "FaultPlanError",
    "FaultTargetError",
    "InvariantAuditor",
    "InvariantViolation",
    "register_timeline",
    "take_timelines",
]
