"""Deterministic, seeded fault injection with invariant auditing.

The subsystem has three moving parts:

* :class:`FaultPlan` (``plan.py``) — a declarative, JSON-serializable
  schedule of typed faults: replica/backend/AZ crashes and recoveries,
  the query-of-death cascade and cert-rotation failure;
* :class:`FaultEngine` (``engine.py``) — compiles a plan onto a
  :class:`~repro.simcore.Simulator` agenda so faults fire at exact
  virtual times (byte-identical under ``sweep_map`` at any ``--jobs``
  level) and records a timeline of every injection/recovery;
* :class:`InvariantAuditor` (``audit.py``) — after every step,
  re-derives session conservation, availability, DNS health, and
  counter monotonicity from first principles and raises
  :class:`InvariantViolation` on the first inconsistency.

An engine's ``timeline`` is the one record of what it injected: the
exhibits that arm a plan return it from their sweep points and put it
in their result's ``faults``, from which ``--report`` writes it.
"""

from .audit import InvariantAuditor, InvariantViolation
from .engine import FaultEngine, FaultTargetError
from .plan import FAULT_KINDS, Fault, FaultPlan, FaultPlanError

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultEngine",
    "FaultPlan",
    "FaultPlanError",
    "FaultTargetError",
    "InvariantAuditor",
    "InvariantViolation",
]
