"""Declarative fault plans: typed, serializable, deterministic.

A :class:`FaultPlan` is a schedule of :class:`Fault` entries — *what*
breaks, *when* (virtual time), and for *how long* — with no behaviour
of its own. The :class:`~repro.faults.engine.FaultEngine` compiles a
plan onto a :class:`~repro.simcore.Simulator` agenda, so faults fire at
exact virtual times regardless of wall-clock scheduling, worker count,
or process interleaving: the same plan over the same seed is
byte-identical at any ``--jobs`` level.

Plans round-trip through JSON (``to_json``/``from_json``) so they can
be committed next to an exhibit or diffed across runs;
:meth:`FaultPlan.canonical` is the sorted, whitespace-free encoding
that carries a plan into pooled sweep workers.

Targets may be literal object names (``backend-3``, ``az2``) or
*symbolic* paths resolved against the gateway topology at fire time::

    service:0                    # the first registered service
    service:0/backend:1          # its second shuffle-shard backend
    service:0/backend:1/replica:0   # that backend's first replica

Symbolic targets keep a plan meaningful across seeds: shuffle-sharding
assigns different concrete backends per seed, but "the victim service's
first backend" names the same *role* in every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["FAULT_KINDS", "Fault", "FaultPlan", "FaultPlanError"]


class FaultPlanError(ValueError):
    """A fault entry or plan failed validation."""


#: Every fault kind the engine knows how to inject.
FAULT_KINDS = (
    "replica_crash",
    "backend_crash",
    "az_crash",
    "query_of_death",
    "controlplane_push_delay",
    "controlplane_partition",
    "cert_rotation_failure",
    "nagle_misconfig",
)

#: Kinds that need a target; the rest act on a singleton component.
_TARGETED_KINDS = ("replica_crash", "backend_crash", "az_crash",
                   "query_of_death")

#: Kinds whose ``param`` must be positive (it carries the magnitude).
_PARAM_KINDS = ("controlplane_push_delay",)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: kind + virtual time + target + duration.

    ``duration_s`` (when set) schedules the matching recovery that many
    seconds after injection; ``None`` means the fault persists to the
    end of the run. ``param`` carries a kind-specific magnitude: the
    extra seconds for ``controlplane_push_delay``.
    """

    kind: str
    at: float = 0.0
    target: str = ""
    #: Owning backend for ``replica_crash`` with a literal replica name
    #: (symbolic ``service:i/backend:j/replica:k`` targets carry the
    #: backend in the path instead).
    backend: str = ""
    duration_s: Optional[float] = None
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: "
                + ", ".join(FAULT_KINDS))
        for name in ("at", "duration_s", "param"):
            value = getattr(self, name)
            # NaN fails both comparisons, so it is caught here too.
            if value is not None and not -math.inf < value < math.inf:
                raise FaultPlanError(
                    f"{self.kind}: {name} must be finite, got {value}")
        if self.at < 0:
            raise FaultPlanError(
                f"{self.kind}: fault time must be >= 0, got {self.at}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise FaultPlanError(
                f"{self.kind}: duration_s must be > 0, got "
                f"{self.duration_s}")
        if self.kind in _TARGETED_KINDS and not self.target:
            raise FaultPlanError(f"{self.kind} needs a target")
        if self.kind in _PARAM_KINDS and self.param <= 0:
            raise FaultPlanError(
                f"{self.kind} needs a positive param "
                f"(got {self.param})")
        if (self.kind == "replica_crash" and not self.backend
                and "/" not in self.target):
            raise FaultPlanError(
                "replica_crash with a literal replica name needs its "
                "owning 'backend'; or use a symbolic "
                "service:i/backend:j/replica:k target")

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "at": self.at}
        if self.target:
            out["target"] = self.target
        if self.backend:
            out["backend"] = self.backend
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.param:
            out["param"] = self.param
        return out

    @classmethod
    def from_json(cls, payload: object) -> "Fault":
        if not isinstance(payload, dict):
            raise FaultPlanError("each fault must be a JSON object")
        known = ("kind", "at", "target", "backend", "duration_s", "param")
        unknown = sorted(k for k in payload if k not in known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault field(s): {', '.join(unknown)}")
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise FaultPlanError("fault 'kind' must be a string")
        at = _number(payload.get("at", 0.0), "at")
        target = payload.get("target", "")
        backend = payload.get("backend", "")
        if not isinstance(target, str) or not isinstance(backend, str):
            raise FaultPlanError("'target' and 'backend' must be strings")
        duration = payload.get("duration_s")
        if duration is not None:
            duration = _number(duration, "duration_s")
        param = _number(payload.get("param", 0.0), "param")
        return cls(kind=kind, at=at, target=target, backend=backend,
                   duration_s=duration, param=param)


def _number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultPlanError(f"fault {name!r} must be a number")
    try:
        return float(value)
    except OverflowError:  # an int beyond float range
        raise FaultPlanError(
            f"fault {name!r} must be finite, got {value!r}") from None


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of faults.

    Order matters only to break ties among faults at the same virtual
    time (earlier in the plan fires first); otherwise the engine
    schedules each fault independently at its own ``at``.
    """

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self):
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise FaultPlanError(
                    f"plan entries must be Fault instances, got "
                    f"{type(fault).__name__}")

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        return cls(tuple(faults))

    @classmethod
    def from_json(cls, payload: object) -> "FaultPlan":
        if not isinstance(payload, (list, tuple)):
            raise FaultPlanError("a fault plan must be a JSON array")
        return cls(tuple(Fault.from_json(entry) for entry in payload))

    def to_json(self) -> List[Dict[str, object]]:
        return [fault.to_json() for fault in self.faults]

    def canonical(self) -> str:
        """Deterministic compact encoding (dedupe keys, diffs)."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def horizon(self) -> float:
        """Virtual time by which every fault and recovery has fired."""
        edge = 0.0
        for fault in self.faults:
            edge = max(edge, fault.at + (fault.duration_s or 0.0))
        return edge
